// Package replay executes I/O against simulated devices in virtual
// time and collects the resulting block traces, playing the role that
// fio + blktrace play in the paper's testbed.
//
// Two execution models are provided:
//
//   - App.Execute: an open application model with per-op think times
//     and sync/async issue modes. This is how ground-truth traces are
//     produced: the application behaviour (user idles, CPU bursts,
//     async bursts) is known by construction, and running the same App
//     against the OLD and NEW devices yields the paper's "OLD trace"
//     and "NEW trace" pair.
//
//   - Emulate: the paper's hardware-emulation loop — visit each old
//     instruction, sleep the inferred idle, issue synchronously to the
//     target device, and collect the new trace underneath the block
//     layer.
//
// All timing is virtual: wall-clock replay in Go would be distorted by
// GC pauses at exactly the microsecond scale under study.
package replay

import (
	"time"

	"repro/internal/device"
	"repro/internal/trace"
)

// AppOp is one application-level I/O operation.
type AppOp struct {
	// Device, LBA, Sectors, Op describe the block request to issue.
	Device  uint32
	LBA     uint64
	Sectors uint32
	Op      trace.Op
	// Think is the user idle / CPU burst the application spends
	// before issuing this op, measured from when the op becomes
	// ready (previous completion for sync, previous issue for async).
	Think time.Duration
	// Sync: when true the application waits for this op to complete
	// before preparing the next one; when false the next op only
	// waits for the submission itself (channel occupancy).
	Sync bool
}

// App is an application-level I/O behaviour: the ground truth the
// paper's inference model tries to recover from block-level timing.
type App struct {
	Name string
	Ops  []AppOp
}

// ExecResult is the outcome of running an App against a device.
type ExecResult struct {
	// Trace is the collected block trace: Arrival is the block-layer
	// issue time, Latency the device service time, Async the ground
	// truth issue mode.
	Trace *trace.Trace
	// Results holds the raw device service windows, index-aligned
	// with Trace.Requests.
	Results []device.Result
	// Think holds the injected think time of each op (ground truth
	// Tidle), index-aligned with Trace.Requests.
	Think []time.Duration
}

// SubmissionGap models the host-side cost of putting one request on
// the wire before control returns to the application in async mode:
// the paper's Tcdel for the (i-1)th asynchronous request in Fig 2b.
// It is charged by Execute between an async issue and the next op's
// readiness.
const SubmissionGap = 4 * time.Microsecond

// Execute runs the application against dev starting at virtual time 0
// and collects the block trace. dev is Reset first.
func (a *App) Execute(dev device.Device) ExecResult {
	dev.Reset()
	res := ExecResult{
		Trace: &trace.Trace{Name: a.Name, Workload: a.Name},
	}
	ready := time.Duration(0)
	for _, op := range a.Ops {
		issue := ready + op.Think
		req := trace.Request{
			Arrival: issue,
			Device:  op.Device,
			LBA:     op.LBA,
			Sectors: op.Sectors,
			Op:      op.Op,
			Async:   !op.Sync,
		}
		r := dev.Submit(issue, req)
		// Host-visible response time, issue to completion: this is
		// what event-traced corpora (MSRC/MSPS) record, and it
		// includes any device queue wait behind earlier async issues.
		req.Latency = r.Complete - issue
		res.Trace.Requests = append(res.Trace.Requests, req)
		res.Results = append(res.Results, r)
		res.Think = append(res.Think, op.Think)
		if op.Sync {
			ready = r.Complete
		} else {
			ready = issue + SubmissionGap
		}
	}
	res.Trace.TsdevKnown = true
	return res
}

// TotalThink sums the injected think times — the ground-truth total
// idle period the verification metrics compare against.
func (r ExecResult) TotalThink() time.Duration {
	var sum time.Duration
	for _, t := range r.Think {
		sum += t
	}
	return sum
}

// Emulate is the paper's hardware-emulation loop: for each request of
// old (in order), wait idle[i] after the previous completion, then
// issue synchronously to dev; the collected trace is returned. idle
// may be nil (all zeros — this is the Revision baseline's closed-loop
// replay) or must have len(old.Requests) entries; idle[0] is applied
// before the first request.
//
// The returned trace's Arrival stamps are the new issue times and
// Latency the new device times, exactly what blktrace would capture
// underneath the block layer on the target node.
func Emulate(old *trace.Trace, dev device.Device, idle []time.Duration) *trace.Trace {
	out := &trace.Trace{
		Name:       old.Name,
		Workload:   old.Workload,
		Set:        old.Set,
		TsdevKnown: true,
	}
	if len(old.Requests) > 0 {
		out.Requests = make([]trace.Request, len(old.Requests))
	}
	dev.Reset()
	EmulateEpoch(out.Requests, old.Requests, dev, idle, nil, 0)
	return out
}

// EmulateEpoch is the one emulation loop behind every entry point in
// this file, so a serviced epoch and a shard emulated from zero cannot
// drift apart: starting at absolute time start, wait idle[i] after the
// previous completion, submit synchronously, move on at the completion.
// It runs one epoch of a longer run on the global timeline: dev carries
// whatever state the preceding epochs left in it (it is not Reset), and
// start is the completion of the last instruction before the epoch,
// zero for the first. A device.ShardSafe dev must also be drained by
// start — no busy unit past it — which holds for a fresh or Reset
// device at start zero and for a device continued from the epoch that
// ended at start; the loop takes it on trust. dst, when non-nil,
// collects the new trace (len(dst) == len(reqs); in place over reqs is
// allowed). async, when non-nil, accumulates shiftDelta, the
// post-processing arrival reduction core.PostProcessShard will apply:
// for each flagged instruction, the emulated latency beyond
// SubmissionGap.
//
// Threading (end, shiftDelta) through consecutive epochs on one device
// reproduces a single run over the concatenation exactly, and running
// core.PostProcessShard over each epoch from the shift accumulated
// before it reproduces one post-processing pass — so an epoch's
// arrivals are final as soon as the device pass has reached it, and
// everything after that pass can run out of order. This holds for
// devices whose state is a function of absolute time (the HDD's
// rotational phase): it needs nothing from dev but Submit, in order.
//
// A device.ShardSafe target allows more. Because the loop is
// synchronous, every submission happens at or after the previous
// completion, by which time such a device has drained (given the
// precondition above for the first one). Each latency is then the
// device's DrainedLatency of the request alone, and the loop takes it
// from there instead of from Submit: no busy state is walked or stored,
// and an epoch emulated at start zero equals the same span of the
// whole-trace emulation shifted by the preceding epoch's end time. That
// invariance is what lets the engine emulate shard-safe epochs in
// parallel and place them on the global timeline afterwards, byte for
// byte; it does not hold for devices with cross-request positional
// state.
//
//tracelint:hotpath
func EmulateEpoch(dst, reqs []trace.Request, dev device.Device, idle []time.Duration, async []bool, start time.Duration) (end, shiftDelta time.Duration) {
	drained, _ := dev.(device.ShardSafe)
	now := start
	for i, r := range reqs {
		if idle != nil {
			now += idle[i]
		}
		req := r
		req.Arrival = now
		var lat time.Duration
		if drained != nil {
			lat = drained.DrainedLatency(req)
		} else {
			lat = dev.Submit(now, req).Complete - now
		}
		if dst != nil {
			req.Latency = lat
			req.Async = false // sync loop; post-processing restores mode
			dst[i] = req
		}
		if async != nil && async[i] && lat > SubmissionGap {
			shiftDelta += lat - SubmissionGap
		}
		now += lat
	}
	return now, shiftDelta
}

// ServiceShard is EmulateEpoch without the output. It exists only so
// the benchmark's replay.service row compiles, and goes with that row
// (ROADMAP item 1(b)).
func ServiceShard(reqs []trace.Request, dev device.Device, idle []time.Duration, async []bool, start time.Duration) (end time.Duration, shiftDelta time.Duration) {
	return EmulateEpoch(nil, reqs, dev, idle, async, start)
}

// Accelerate reproduces the Acceleration baseline: it divides every
// inter-arrival time of old by factor, preserving order, sizes and
// addresses. No device is involved; this is the purely static
// transformation of [8] (factor 100 in the paper's evaluation).
func Accelerate(old *trace.Trace, factor float64) *trace.Trace {
	out := old.Clone()
	if factor <= 0 || len(out.Requests) == 0 {
		return out
	}
	base := out.Requests[0].Arrival
	now := time.Duration(0)
	prev := base
	for i := range out.Requests {
		gap := out.Requests[i].Arrival - prev
		prev = out.Requests[i].Arrival
		now += time.Duration(float64(gap) / factor)
		out.Requests[i].Arrival = now
		out.Requests[i].Latency = 0 // static method: no new device times
	}
	out.TsdevKnown = false
	return out
}
