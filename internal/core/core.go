// Package core assembles the full TraceTracker pipeline of Fig 4:
// software simulation (classification, Algorithm 1 steepness analysis,
// latency decomposition — package infer), hardware emulation on the
// target device (package replay), and the post-processing pass that
// restores asynchronous-mode timing to the emulated trace.
//
// The entry point is Reconstruct. Given an old block trace and a
// target device, it returns the remastered trace whose inter-arrival
// times are aware of the new storage while preserving the old trace's
// user idle periods and system delays.
package core

import (
	"time"

	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Options configures Reconstruct. The zero value is the paper's full
// TraceTracker configuration.
type Options struct {
	// SkipPostProcess disables the asynchronous-mode restoration pass;
	// this is exactly the paper's Dynamic baseline.
	SkipPostProcess bool
	// ForceInference runs the model fit even when the trace records
	// per-request latencies (Tsdev-known corpora). By default recorded
	// latencies are used directly, the paper's "skip the Tsdev
	// inference phase" path.
	ForceInference bool
}

// Report carries the reconstruction diagnostics the experiments print.
type Report struct {
	// Model is the fitted inference model (nil on the Tsdev-known path).
	Model *infer.Model
	// Idle[i] is the inferred idle period preceding instruction i of
	// the old trace (what the emulation injected).
	Idle []time.Duration
	// Async[i] reports instructions identified as asynchronous.
	Async []bool
	// IdleCount is the number of instructions with nonzero idle.
	IdleCount int
	// IdleTotal is the summed inferred idle.
	IdleTotal time.Duration
	// AsyncCount is the number of async-flagged instructions.
	AsyncCount int
	// Shards is the number of epoch shards the reconstruction ran as:
	// 1 for this sequential pipeline, more when the parallel engine
	// produced the report.
	Shards int
	// DeviceStats carries the target device's accumulated model
	// statistics (GC rounds, write amplification, cache hit rates) when
	// the device reports any (device.StatsReporter); nil otherwise. The
	// stats come from the device instance that serviced every request
	// in submission order, so they are identical across execution
	// strategies.
	DeviceStats []device.Stat
}

// idleStats fills the aggregate fields from the per-instruction data.
func (r *Report) idleStats() {
	r.IdleCount, r.AsyncCount = 0, 0
	r.IdleTotal = 0
	for _, d := range r.Idle {
		if d > 0 {
			r.IdleCount++
			r.IdleTotal += d
		}
	}
	for _, a := range r.Async {
		if a {
			r.AsyncCount++
		}
	}
}

// Reconstruct runs the TraceTracker co-evaluation: infer per-request
// idle periods and async flags from the old trace, emulate the
// instructions on the target device with those idles, and post-process
// the emulated trace to restore asynchronous inter-arrival behaviour.
func Reconstruct(old *trace.Trace, target device.Device, opts Options) (*trace.Trace, *Report, error) {
	rep := &Report{Shards: 1}
	m, useRecorded, err := PrepareModel(old, opts)
	if err != nil {
		return nil, nil, err
	}
	rep.Model = m
	// The effective-TsdevKnown flag (not the trace's own) selects
	// recorded latencies, which is how ForceInference hides them from
	// decomposition without copying the trace.
	rep.Idle, rep.Async = infer.DecomposeShard(rep.Model, old.Requests, infer.ShardContext{
		TsdevKnown: useRecorded,
		Seq:        old.SeqFlags(),
	})
	rep.idleStats()

	out := replay.Emulate(old, target, rep.Idle)
	if !opts.SkipPostProcess {
		postProcess(out, rep.Async)
	}
	if sr, ok := target.(device.StatsReporter); ok {
		rep.DeviceStats = sr.DeviceStats()
	}
	return out, rep, nil
}

// PrepareModel makes the pipeline's model decision in one place, for
// the sequential path above and the parallel engine alike: it reports
// whether recorded latencies drive the decomposition (Tsdev-known and
// not ForceInference) and fits the Section III model otherwise. The
// model is nil on the recorded path, mirroring the paper's "skip the
// Tsdev inference phase".
func PrepareModel(old *trace.Trace, opts Options) (m *infer.Model, useRecorded bool, err error) {
	if old.TsdevKnown && !opts.ForceInference {
		return nil, true, nil
	}
	m, err = infer.Estimate(old, infer.EstimateOptions{})
	return m, false, err
}

// postProcess restores asynchronous-mode timing (Section IV): the
// emulation issues every instruction synchronously, so an instruction
// the old trace shows as asynchronous (its old inter-arrival was
// shorter than its old device time) has an inflated new inter-arrival.
// For each such instruction the measured new device time is subtracted
// from its inter-arrival and all later arrivals shift earlier, keeping
// only the submission-gap (channel occupancy) component the paper's
// Fig 2b attributes to async issues.
func postProcess(t *trace.Trace, async []bool) {
	PostProcessShard(t.Requests, async, 0)
}

// PostProcessShard applies the asynchronous-mode restoration to one
// shard of an emulated trace, in place. shift is the cumulative
// arrival reduction accumulated by earlier shards (zero for the whole
// trace or the first shard); the updated cumulative shift is returned
// so shard results chain: running PostProcessShard over consecutive
// shards, threading the shift, equals one postProcess pass over the
// concatenation.
func PostProcessShard(reqs []trace.Request, async []bool, shift time.Duration) time.Duration {
	for i := range reqs {
		reqs[i].Arrival -= shift
		if i < len(async) && async[i] {
			reduction := reqs[i].Latency - replay.SubmissionGap
			if reduction > 0 {
				shift += reduction
			}
			reqs[i].Async = true
		}
	}
	return shift
}

// InterArrivalGap summarizes |Tintt(a) − Tintt(b)| between two equal-
// length traces: the average absolute per-instruction inter-arrival
// difference the paper's Figs 13/14 report. The shorter trace bounds
// the comparison.
func InterArrivalGap(a, b *trace.Trace) (avg, max time.Duration) {
	ia, ib := a.InterArrivals(), b.InterArrivals()
	n := len(ia)
	if len(ib) < n {
		n = len(ib)
	}
	if n == 0 {
		return 0, 0
	}
	var sum, mx time.Duration
	for i := 0; i < n; i++ {
		d := ia[i] - ib[i]
		if d < 0 {
			d = -d
		}
		sum += d
		if d > mx {
			mx = d
		}
	}
	return sum / time.Duration(n), mx
}
