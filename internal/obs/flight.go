package obs

// FlightRecorder is the daemon's bounded ring of recent job
// timelines: finished (or failed) jobs park their frozen Tracer here
// until capacity evicts them, oldest first, and a lookup by job ID
// renders its JobTrace. What a parked job costs is its tracer's packed
// records, one pointer-free byte slice: ≈ 10 KB for a 985-span job
// (≈ 2.5 MB for a full ring of them, where the unpacked records took
// ≈ 8 MB), ≈ 25 KB for a job whose epochs fill the tracer. So daemon
// memory stays O(ring * cap) no matter how many jobs run, and the
// collector scans none of it. Bytes reports the sum.

import "sync"

// DefaultFlightRecorderCapacity is the daemon default for -trace-ring.
const DefaultFlightRecorderCapacity = 256

// FlightRecorder holds the most recent job timelines, keyed by job
// ID. Safe for concurrent use.
type FlightRecorder struct {
	mu      sync.Mutex
	cap     int
	order   []string          // insertion order, oldest first. guarded by mu
	byID    map[string]parked // guarded by mu
	bytes   int               // packed bytes of the timelines held. guarded by mu
	counter *Counter          // eviction metric, or nil
}

// parked is one timeline held, with its packed size as it was parked.
type parked struct {
	t     *Tracer
	bytes int
}

// NewFlightRecorder returns a recorder keeping at most capacity
// timelines (minimum 1). evictions, when not nil, ticks once per
// evicted timeline.
func NewFlightRecorder(capacity int, evictions *Counter) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{cap: capacity, byID: make(map[string]parked), counter: evictions}
}

// Add parks a job's tracer, which the caller has finished. Re-adding an
// existing job ID replaces its timeline in place (replays) without
// consuming a second slot.
func (f *FlightRecorder) Add(id string, t *Tracer) {
	if t == nil {
		return
	}
	p := parked{t: t, bytes: t.parkedBytes()}
	f.mu.Lock()
	if old, ok := f.byID[id]; ok {
		f.bytes -= old.bytes
	} else {
		f.order = append(f.order, id)
	}
	f.byID[id] = p
	f.bytes += p.bytes
	f.evictLocked()
	f.mu.Unlock()
}

// evictLocked drops the oldest timelines beyond cap; the caller holds
// f.mu.
//
//tracelint:holds mu
func (f *FlightRecorder) evictLocked() {
	for len(f.order) > f.cap {
		victim := f.order[0]
		f.order = f.order[1:]
		f.bytes -= f.byID[victim].bytes
		delete(f.byID, victim)
		if f.counter != nil {
			f.counter.Inc()
		}
	}
}

// Get renders the timeline for a job ID, or returns (nil, false) if it
// was never recorded or has been evicted. It renders outside the
// recorder's lock, so a GET never stalls the executors parking jobs.
func (f *FlightRecorder) Get(id string) (*JobTrace, bool) {
	f.mu.Lock()
	p, ok := f.byID[id]
	f.mu.Unlock()
	if !ok {
		return nil, false
	}
	return p.t.Snapshot(), true
}

// Len returns the number of timelines currently held.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	n := len(f.order)
	f.mu.Unlock()
	return n
}

// Bytes returns the packed bytes of the timelines currently held.
func (f *FlightRecorder) Bytes() int {
	f.mu.Lock()
	n := f.bytes
	f.mu.Unlock()
	return n
}
