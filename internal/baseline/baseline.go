// Package baseline implements the four trace-reconstruction methods
// the paper evaluates TraceTracker against (Section V):
//
//   - Acceleration: statically divide all inter-arrival times by a
//     fixed factor (the paper uses 100, after [8]).
//   - Revision: replay the instructions closed-loop on the target
//     device with no think time ([4]-style replay).
//   - Fixed-th: replay with idles inferred by a fixed threshold — any
//     old inter-arrival above the threshold contributes the excess as
//     idle (the paper selects 10 ms).
//   - Dynamic: TraceTracker's inference-driven emulation without the
//     asynchronous post-processing pass.
//
// These are the reference implementations — whole trace in memory, one
// core — that the identity tests and package experiments compare
// against; jobs compute the same bytes on the engine's stage graph (see
// the method table in package engine).
package baseline

import (
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/replay"
	"repro/internal/trace"
)

// DefaultAccelerationFactor is the paper's acceleration degree,
// borrowed from the flash-lifetime study it cites as [8].
const DefaultAccelerationFactor = 100

// DefaultFixedThreshold is the paper's tuned Fixed-th value: the
// worst-case device latency of the old storage, selected from a
// 10–100 ms sweep on the HDD node.
const DefaultFixedThreshold = 10 * time.Millisecond

// Acceleration reconstructs by shortening all inter-arrival times by
// factor. It involves no device.
func Acceleration(old *trace.Trace, factor float64) *trace.Trace {
	return replay.Accelerate(old, factor)
}

// Revision reconstructs by replaying closed-loop on the target device:
// each instruction issues as soon as the previous completes. Realistic
// Tcdel and Tsdev, but all idle context is lost.
func Revision(old *trace.Trace, target device.Device) *trace.Trace {
	return replay.Emulate(old, target, nil)
}

// FixedTh reconstructs by replaying with threshold-inferred idles:
// idle(i+1) = max(0, Tintt(i) − threshold).
func FixedTh(old *trace.Trace, target device.Device, threshold time.Duration) *trace.Trace {
	n := len(old.Requests)
	idle := make([]time.Duration, n)
	for i := 0; i+1 < n; i++ {
		intt := old.Requests[i+1].Arrival - old.Requests[i].Arrival
		if intt > threshold {
			idle[i+1] = intt - threshold
		}
	}
	return replay.Emulate(old, target, idle)
}

// Dynamic reconstructs with TraceTracker's inference model but skips
// post-processing, losing asynchronous-mode timing.
func Dynamic(old *trace.Trace, target device.Device) (*trace.Trace, error) {
	out, _, err := core.Reconstruct(old, target, core.Options{SkipPostProcess: true})
	return out, err
}

// TraceTracker is the full co-evaluation (inference + emulation +
// post-processing), re-exported here so comparison sweeps can iterate
// over all five methods uniformly (see Methods).
func TraceTracker(old *trace.Trace, target device.Device) (*trace.Trace, error) {
	out, _, err := core.Reconstruct(old, target, core.Options{})
	return out, err
}

// Methods is the five reconstruction techniques at the paper's
// settings (factor DefaultAccelerationFactor, threshold
// DefaultFixedThreshold), in the order the paper introduces them.
var Methods = []struct {
	Name string
	Run  func(old *trace.Trace, target device.Device) (*trace.Trace, error)
}{
	{"Acceleration", func(old *trace.Trace, _ device.Device) (*trace.Trace, error) {
		return Acceleration(old, DefaultAccelerationFactor), nil
	}},
	{"Revision", func(old *trace.Trace, target device.Device) (*trace.Trace, error) {
		return Revision(old, target), nil
	}},
	{"Fixed-th", func(old *trace.Trace, target device.Device) (*trace.Trace, error) {
		return FixedTh(old, target, DefaultFixedThreshold), nil
	}},
	{"Dynamic", Dynamic},
	{"TraceTracker", TraceTracker},
}
