// Package device simulates the two storage systems the paper's
// co-evaluation runs against: the decade-old HDD node the public traces
// were collected on (the OLD system) and the modern all-flash array the
// traces are remastered for (the NEW system).
//
// Both simulators are deterministic discrete-time models: Submit maps
// an arrival time and a block request to the time the device starts
// servicing it and the time completion is signalled to the host. The
// decomposition the paper studies falls directly out of the model:
//
//	Tcdel = interface/channel transfer time (host <-> device)
//	Tsdev = device mechanism time (seek+rotation+media for HDD,
//	        flash array scheduling for SSD)
//	Tslat = Tcdel + Tsdev = Complete - Start for a sync request
package device

import (
	"time"

	"repro/internal/trace"
)

// Result describes the simulated servicing of one request.
type Result struct {
	// Start is when the device began servicing the request (>= the
	// submission time; later when the device was busy).
	Start time.Duration
	// Complete is when completion was signalled to the host.
	Complete time.Duration
}

// Latency is the service time the host observes once servicing begins.
func (r Result) Latency() time.Duration { return r.Complete - r.Start }

// Device is a simulated block storage device.
type Device interface {
	// Submit presents a request to the device at virtual time at and
	// returns its servicing window. Implementations maintain internal
	// busy state, so Submit must be called in non-decreasing `at`
	// order (the replay engine guarantees this).
	Submit(at time.Duration, r trace.Request) Result
	// Name identifies the device model for reports.
	Name() string
	// Reset clears all internal busy/positioning state.
	Reset()
}

// ShardSafe is implemented by devices whose servicing depends only on
// busy state that never outlives the last completion: once such a
// device has drained, a later submission is serviced exactly as on a
// freshly Reset device. The flash simulators qualify; the HDD does not
// — its head position and rotational phase persist across idle
// periods.
//
// A synchronous emulation (replay.EmulateEpoch) submits every request
// at or after the previous completion, so over such a device each
// latency depends on the request alone. DrainedLatency is that
// function, and it is what the emulation loop calls instead of Submit:
// the run is invariant under time translation and may be partitioned
// into shards.
type ShardSafe interface {
	Device
	// DrainedLatency returns Submit(at, r).Complete - at for a device
	// with no busy unit past at. A Submit after it is serviced as it
	// would have been without the call, as long as that Submit is at or
	// after the point the device drained.
	DrainedLatency(r trace.Request) time.Duration
}

// IsShardSafe reports whether d declares shard-safe emulation.
func IsShardSafe(d Device) bool {
	_, ok := d.(ShardSafe)
	return ok
}

// State exists only so the benchmark's snapshot/restore rows compile;
// it goes with them (ROADMAP item 1(b)).
type State any

// Stateful exists only so the benchmark's snapshot/restore rows
// compile; it goes with them (ROADMAP item 1(b)). No device implements
// it: Reset is the one state contract.
type Stateful interface {
	Snapshot() State
	Restore(State)
}

// IsStateful is always false, since no device implements Stateful. It
// exists only so the benchmark compiles and goes with its
// snapshot/restore rows (ROADMAP item 1(b)).
func IsStateful(d Device) bool {
	_, ok := d.(Stateful)
	return ok
}

// Stat is one named statistic a device model accumulated during an
// emulation — the numbers the paper's motivating studies report (GC
// counts, write amplification, cache hit rates). Values are float64 so
// one type carries counters, durations and ratios.
type Stat struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// StatsReporter is implemented by devices that accumulate model
// statistics. The engine reads the stats from the device that serviced
// every request in submission order (the serial device or the
// engine servicer's device), so reported stats are identical across
// execution strategies — locked by the engine identity tests.
type StatsReporter interface {
	// DeviceStats returns the accumulated statistics in a fixed order.
	DeviceStats() []Stat
}

// bytesDuration returns the time to move n bytes at rate bytesPerSec.
func bytesDuration(n int64, bytesPerSec float64) time.Duration {
	if bytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bytesPerSec * float64(time.Second))
}

// nsPerByte returns the nanoseconds-per-byte multiplier for a
// bandwidth, the reciprocal form hot submit paths use so the
// per-request cost is a multiply instead of a divide. The double
// rounding against bytesDuration is far below the nanosecond grid for
// realistic sizes and bandwidths.
func nsPerByte(bytesPerSec float64) float64 {
	if bytesPerSec <= 0 {
		return 0
	}
	return float64(time.Second) / bytesPerSec
}
