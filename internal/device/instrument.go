package device

import (
	"time"

	"repro/internal/trace"
)

// Instrumented wraps a Device and accumulates the utilization and
// latency statistics the experiments report: request/byte counts per
// op, busy time, and a latency accumulator. It implements Device.
type Instrumented struct {
	Inner Device

	reads, writes uint64
	readBytes     int64
	writeBytes    int64
	busy          time.Duration
	lastComplete  time.Duration
	latencySum    time.Duration
	latencyMax    time.Duration
	queuedSum     time.Duration // Start - arrival accumulated
}

// NewInstrumented wraps inner.
func NewInstrumented(inner Device) *Instrumented {
	return &Instrumented{Inner: inner}
}

// Name implements Device.
func (d *Instrumented) Name() string { return d.Inner.Name() + "+stats" }

// Reset implements Device, clearing both the wrapped device and the
// accumulated statistics.
func (d *Instrumented) Reset() {
	d.Inner.Reset()
	*d = Instrumented{Inner: d.Inner}
}

// Submit implements Device.
func (d *Instrumented) Submit(at time.Duration, r trace.Request) Result {
	res := d.Inner.Submit(at, r)
	if r.Op == trace.Read {
		d.reads++
		d.readBytes += r.Bytes()
	} else {
		d.writes++
		d.writeBytes += r.Bytes()
	}
	lat := res.Complete - at
	d.latencySum += lat
	if lat > d.latencyMax {
		d.latencyMax = lat
	}
	d.queuedSum += res.Start - at
	d.busy += res.Complete - res.Start
	if res.Complete > d.lastComplete {
		d.lastComplete = res.Complete
	}
	return res
}

// Stats is the accumulated snapshot.
type Stats struct {
	Reads, Writes         uint64
	ReadBytes, WriteBytes int64
	MeanLatency           time.Duration
	MaxLatency            time.Duration
	MeanQueueWait         time.Duration
	// Utilization is busy time over the span to the last completion;
	// > 1 means internal parallelism served overlapping requests.
	Utilization float64
}

// Snapshot returns the statistics collected since the last Reset.
func (d *Instrumented) Snapshot() Stats {
	n := d.reads + d.writes
	s := Stats{
		Reads: d.reads, Writes: d.writes,
		ReadBytes: d.readBytes, WriteBytes: d.writeBytes,
		MaxLatency: d.latencyMax,
	}
	if n > 0 {
		s.MeanLatency = d.latencySum / time.Duration(n)
		s.MeanQueueWait = d.queuedSum / time.Duration(n)
	}
	if d.lastComplete > 0 {
		s.Utilization = float64(d.busy) / float64(d.lastComplete)
	}
	return s
}

// Null is a zero-latency device: every request completes the moment it
// is submitted (plus an optional fixed latency). It isolates pipeline
// overheads in benchmarks and serves as the "infinitely fast target"
// limit case.
type Null struct {
	// Fixed is added to every completion (zero by default).
	Fixed time.Duration
}

// Name implements Device.
func (n *Null) Name() string { return "null" }

// Reset implements Device.
func (n *Null) Reset() {}

// Submit implements Device.
func (n *Null) Submit(at time.Duration, _ trace.Request) Result {
	return Result{Start: at, Complete: at + n.Fixed}
}
