// Package engine is the streaming, sharded reconstruction engine: it
// runs the TraceTracker co-evaluation pipeline (package core) over
// epoch shards of a trace concurrently, producing output byte-identical
// to the sequential pipeline while scaling with cores and holding only
// a bounded window of the trace in memory.
//
// # The stage graph
//
// One executor (exec.go) runs every reconstruction, on any target, as
// one graph:
//
//	plan ──> decompose ──> service ──> emulate ──> merge
//	(serial)   (pool)      (serial)     (pool)     (serial)
//
//	plan       cut epochs at idle-gap boundaries, carry seq state
//	decompose  everything an epoch can compute before its predecessors
//	           are known: per-request idle/async inference from the OLD
//	           trace (device-independent) and, on a shard-safe target,
//	           the device pass from time zero
//	service    the one place epochs meet in order: the device pass on
//	           every other target, otherwise only the chain below
//	emulate    what is left once the epoch's place is known: post-process
//	           (which makes the arrivals final), aggregate, render
//	merge      in index order, splice the rendered bytes into the output
//	           and fold the report
//
// There is one rule for when an epoch's bytes are final: when it leaves
// the middle stage. What that stage has to do is read off the target
// device:
//
//   - device.ShardSafe (the flash simulators): the emulation loop is
//     synchronous — every instruction is submitted at or after the
//     previous completion, by which point a shard-safe device has
//     drained — so each latency is the device's DrainedLatency of the
//     request alone, which the loop computes in closed form instead of
//     submitting. The servicing is invariant under time translation,
//     and an epoch emulated at virtual time zero equals the same span
//     of the whole-trace emulation shifted by the preceding epochs' end
//     times. The workers therefore run the device pass too, each on its
//     own device and with no Reset between epochs, and the middle stage
//     is a chain: it folds each epoch's (end, shiftDelta) into running
//     totals and hands the next epoch its entry shift, accumulated
//     post-processing shift minus accumulated end times.
//   - everything else (hdd, ftl, host, wrapped devices): head position,
//     rotational phase, mapping tables, page-cache contents and destage
//     debt persist across idle periods, so epoch k's servicing depends
//     on everything before it, and only one pass over one device, in
//     order, can compute it. The middle stage is that pass
//     (replay.EmulateEpoch, the paper's emulation loop unchanged): it
//     continues the run's single device through the epoch's submissions
//     on the absolute timeline, collects the new records as it goes, and
//     the entry shift is the accumulated post-processing shift alone.
//     It needs nothing from a device but Submit in order, so it is also
//     where a device that declares no capability runs.
//
// Either way core.PostProcessShard from the entry shift turns the
// collected records into their final form, and a stateless record
// encoder (trace.ShardEncoder — csv, bin) renders them right there, so
// the merge splices buffers and its cost does not grow with the record
// count. The encoders whose records depend on the ones before (blktrace
// sequence numbers, fio waits) are the one thing the merge still encodes.
//
// Epochs are cut where the planner finds the workload's idle gaps,
// which balances the stages around the device pass decently. In-flight
// epochs are bounded by a token pool, so a run holds
// O(Workers · MaxShardRequests) requests no matter how the stage
// throughputs differ.
//
// The inference decomposition is local to adjacent request pairs given
// the per-device sequentiality state, and the post-processing shift
// only accumulates — so each epoch needs just a tiny carry (previous
// request + flag, next arrival, running seq state) to reproduce its
// slice of the sequential result exactly.
//
// The model fit (infer.Estimate) is global, so it runs once up front —
// incrementally via infer.StreamClassifier on a job's input. Note the
// fit itself retains one inter-arrival sample and its group tag
// (12 bytes) per request, so a streaming run over an inference-path
// corpus (no recorded latencies) is O(n) in samples even though
// requests stay bounded; only Tsdev-known corpora stream in fully
// bounded memory. The fit is
// also a function of the old trace alone, never of the job's target, so
// a job does not have to be the one to run it: a result cache that
// fitted the input when it ingested it (ResultCache.FittedModel — the
// fit of those bytes in file order) hands RunJobCached the model, and a
// job whose own fit would be exactly that (fitsAsStored) skips the pass
// and its second decode of the input. Every other job — no cache, a reorder window, forced
// inference on a Tsdev-known input — fits for itself.
//
// # Methods
//
// The five methods of the paper's evaluation (JobSpec.Method) are this
// one graph. infer.DecomposeShardInto computes idle = max(0, gap − Tslat)
// and async = gap < Tsdev, so the four that replay on a device differ
// only in where Tslat comes from and whether post-processing runs:
//
//	method        idle rule                                post-process
//	tracetracker  gap − Tslat (fitted model or recorded)   yes
//	dynamic       the same                                 no
//	fixed-th      gap − threshold (a constant model)       no
//	revision      none (that constant, beyond any gap)     no
//
// The constant model is all channel delay — Tslat is the threshold for
// every request, Tsdev zero, so nothing is ever asynchronous — and
// needs no fit pass. acceleration has no device pass and runs no graph:
// the job's decoder feeds a record loop (gap ÷ factor) into its encoder.
//
// # Shard boundaries
//
// The planner prefers to cut where the inter-arrival gap is at least
// MinIdleGap — the idle-period boundaries the paper's inference step
// identifies as application think time, which align shards with
// natural workload epochs — and force-cuts at MaxShardRequests so
// memory stays bounded on gap-free streams. Correctness does not
// depend on cut placement (see above); placement only shapes load
// balance.
package engine

import (
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config parameterizes an Engine. The zero value selects GOMAXPROCS
// workers, 1 ms idle cuts, and the paper's target array.
type Config struct {
	// Workers is the number of concurrent shard executors (default
	// GOMAXPROCS).
	Workers int
	// MinIdleGap is the smallest inter-arrival gap treated as an epoch
	// boundary (default 1 ms, well above device service times).
	MinIdleGap time.Duration
	// MinShardRequests is the minimum shard size before an idle cut is
	// taken (default 1024), so pathological gap-heavy traces don't
	// produce confetti shards.
	MinShardRequests int
	// MaxShardRequests force-cuts a shard regardless of gaps (default
	// 65536), bounding streaming memory.
	MaxShardRequests int
	// Core configures the reconstruction pipeline itself.
	Core core.Options
	// Device builds a fresh target device (default: the paper's 4-SSD
	// flash array). A run calls it once, plus once per worker when the
	// device is shard-safe.
	Device func() device.Device
	// Metrics, when non-nil, receives per-stage wall time, queue
	// occupancy, token-pool backpressure and cache traffic. nil (the
	// default) disables instrumentation entirely: the hook's methods
	// are its only surface and each returns at once on nil, so the
	// executor pays a few nil checks per epoch and the per-request
	// paths are untouched.
	Metrics *obs.EngineMetrics
	// Trace, when non-nil, records this run's span tree — plan span,
	// sampled epoch spans with per-stage children — under the stream
	// span the run opens at the tracer's root. nil (the default)
	// disables tracing at nil-check cost, the same discipline as Metrics.
	Trace *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinIdleGap <= 0 {
		c.MinIdleGap = time.Millisecond
	}
	if c.MinShardRequests <= 0 {
		c.MinShardRequests = 1024
	}
	if c.MaxShardRequests <= 0 {
		c.MaxShardRequests = 65536
	}
	if c.MaxShardRequests < c.MinShardRequests {
		// MaxShardRequests is the operator's memory bound — honour it
		// and shrink the idle-cut minimum instead.
		c.MinShardRequests = c.MaxShardRequests
	}
	if c.Device == nil {
		c.Device = func() device.Device { return device.NewArray(device.DefaultArrayConfig()) }
	}
	return c
}

// Engine runs sharded reconstructions.
type Engine struct {
	cfg Config
}

// New builds an Engine, applying Config defaults.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Report aggregates reconstruction diagnostics across shards; it is
// the aggregate counterpart of core.Report (which additionally carries
// per-instruction slices).
type Report struct {
	// Model is the fitted inference model (nil on the Tsdev-known path).
	Model *infer.Model
	// Requests is the number of instructions processed.
	Requests int64
	// Shards is the number of epoch shards executed.
	Shards int
	// Workers is the executor count used.
	Workers int
	// IdleCount / IdleTotal / AsyncCount mirror core.Report.
	IdleCount  int
	IdleTotal  time.Duration
	AsyncCount int
	// DeviceStats mirrors core.Report.DeviceStats: the target device's
	// accumulated model statistics when it reports any.
	DeviceStats []device.Stat
}

// Reconstruct runs a materialised trace through ReconstructStream: the
// output equals core.Reconstruct(old, target, cfg.Core) byte for byte,
// computed on cfg.Workers goroutines. The report carries the model,
// the epoch count, the idle/async aggregates and the device stats;
// Idle and Async stay nil, because per-instruction data is
// core.Reconstruct's, which remains the specification. The input must
// meet the planner's rules, as every job's does: at least one request,
// arrivals non-decreasing, no zero-size request.
func (e *Engine) Reconstruct(old *trace.Trace) (*trace.Trace, *core.Report, error) {
	m, _, err := core.PrepareModel(old, e.cfg.Core)
	if err != nil {
		return nil, nil, err
	}
	col := &collector{}
	col.Requests = make([]trace.Request, 0, old.Len())
	rep, err := e.ReconstructStream(&sliceDecoder{reqs: old.Requests, meta: old.Meta()}, col, m)
	if err != nil {
		return nil, nil, err
	}
	return &col.Trace, &core.Report{
		Model:       rep.Model,
		Shards:      rep.Shards,
		IdleCount:   rep.IdleCount,
		IdleTotal:   rep.IdleTotal,
		AsyncCount:  rep.AsyncCount,
		DeviceStats: rep.DeviceStats,
	}, nil
}

// sliceDecoder streams a materialised trace. Read hands the planner a
// view of the next requests, so nothing is copied.
type sliceDecoder struct {
	reqs []trace.Request
	meta trace.Meta
}

func (d *sliceDecoder) Meta() trace.Meta { return d.meta }

func (d *sliceDecoder) Read(dst []trace.Request) ([]trace.Request, error) {
	if len(d.reqs) == 0 {
		return nil, io.EOF
	}
	run := d.reqs[:min(len(dst), len(d.reqs))]
	d.reqs = d.reqs[len(run):]
	return run, nil
}

// Close drops the rest of the trace: a later Read sees the end.
func (d *sliceDecoder) Close() { d.reqs = nil }

// collector is the serial encoder Reconstruct streams into: the merge
// appends every record to a slice presized to the input.
type collector struct{ trace.Trace }

func (c *collector) Begin(m trace.Meta) error {
	c.Name, c.Workload, c.Set, c.TsdevKnown = m.Name, m.Workload, m.Set, m.TsdevKnown
	return nil
}

func (c *collector) Write(r trace.Request) error {
	c.Requests = append(c.Requests, r)
	return nil
}

func (c *collector) Close() error { return nil }
