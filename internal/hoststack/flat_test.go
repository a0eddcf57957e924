package hoststack

// Tests for what the flat layout adds to the model's contract: index
// and list consistency under churn, storage that is never shared
// between a snapshot and its source or recycled while still in use, a
// flush cursor that does not outlive the cache it describes, and an
// allocation-free steady state.

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/device"
	"repro/internal/trace"
)

// churnStack is a small write-back cache over a write-caching HDD, so
// evictions, high-water flushes and inner destage debt are all live.
func churnStack(cachePages int) *Stack {
	wc := device.DefaultHDDConfig()
	wc.WriteCache = true
	return New(Config{CachePages: cachePages, PageKB: 4, WriteBack: true, FlushBatch: 8, NoBlockLog: true}, device.NewHDD(wc))
}

// run submits reqs back to back from now, returning the results and
// the final completion time.
func run(s *Stack, now time.Duration, reqs []trace.Request) ([]device.Result, time.Duration) {
	out := make([]device.Result, len(reqs))
	for i, r := range reqs {
		out[i] = s.Submit(now, r)
		now = out[i].Complete
	}
	return out, now
}

func sameResults(t *testing.T, what string, got, want []device.Result) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestIndexInvariantsUnderChurn drives insert/evict churn over a page
// universe eight times the cache (with index growth on the way up) and
// checks, at several points, that every resident key is found, no
// other key of the universe is, and the list, free chain, index and
// resident count agree.
func TestIndexInvariantsUnderChurn(t *testing.T) {
	const capacity, universe = 200, 1600
	s := churnStack(capacity)
	reqs := stackWorkload(30_000, universe, 5)
	now := time.Duration(0)
	for lap := 0; lap < 6; lap++ {
		_, now = run(s, now, reqs[lap*5000:(lap+1)*5000])
		checkLayout(t, s)
		resident := map[oracleKey]bool{}
		for _, k := range lruKeys(s) {
			resident[k] = true
		}
		if len(resident) != capacity {
			t.Fatalf("lap %d: %d distinct resident pages, want a full cache of %d", lap, len(resident), capacity)
		}
		for p := uint64(0); p < universe+16; p++ {
			if found := s.find(0, p) != nilSlot; found != resident[oracleKey{0, p}] {
				t.Fatalf("lap %d: page %d: index finds it = %v, on the recency list = %v", lap, p, found, !found)
			}
		}
	}
}

// TestRestoreDoesNotAliasSource: a snapshot restored into B, and B then
// driven somewhere else entirely, must not disturb the source — A
// continued from the snapshot point still matches an uninterrupted
// run. B's second Restore retires the storage it adopted from the
// first snapshot to the pool, and A's next Snapshot may draw it, so
// the pool is in the loop too.
func TestRestoreDoesNotAliasSource(t *testing.T) {
	prefix := stackWorkload(3000, 400, 3)
	suffix := stackWorkload(3000, 400, 4)
	noise := stackWorkload(3000, 400, 9)

	ref := churnStack(128)
	_, mid := run(ref, 0, prefix)
	want, _ := run(ref, mid, suffix)

	a, b := churnStack(128), churnStack(128)
	run(a, 0, prefix)
	b.Restore(a.Snapshot())
	run(b, mid, noise)
	got, end := run(a, mid, suffix[:1500])
	b.Restore(a.Snapshot()) // retires what B adopted; A snapshots again below
	run(b, end, noise)
	snap := a.Snapshot()
	run(b, end, noise)
	rest, _ := run(a, end, suffix[1500:])
	sameResults(t, "source continued past two snapshots", append(got, rest...), want)
	checkLayout(t, a)

	// The last snapshot is still intact after all of the above.
	c := churnStack(128)
	c.Restore(snap)
	fromSnap, _ := run(c, end, suffix[1500:])
	sameResults(t, "restored from the retained snapshot", fromSnap, want[1500:])
}

// TestRestoreForgetsFlushCursor restores into a stack whose flusher has
// already worked its way up another cache's recency list. The cursor it
// left describes that cache, not the adopted one: kept, it would name an
// arbitrary slot of the new slab — here the most recent page — and hide
// every dirty page below it from the flusher.
func TestRestoreForgetsFlushCursor(t *testing.T) {
	mk := func() *Stack {
		cfg := Config{CachePages: 8, PageKB: 4, WriteBack: true, DirtyHighWater: 0.5, FlushBatch: 2, NoBlockLog: true}
		return New(cfg, device.NewHDD(device.DefaultHDDConfig()))
	}
	span := func(op trace.Op, from, to uint64) []trace.Request {
		var reqs []trace.Request
		for p := from; p < to; p++ {
			reqs = append(reqs, trace.Request{LBA: p * 8, Sectors: 8, Op: op})
		}
		return reqs
	}
	// Eight one-page writes cross the four-page limit twice; the second
	// flush round stops on slot 3.
	used := mk()
	run(used, 0, span(trace.Write, 0, 8))
	if used.flushFrom == nilSlot {
		t.Fatalf("fixture left no flush cursor behind")
	}
	// Slots 0-3 clean, slots 4-7 dirty and exactly at the limit, then
	// slot 3 read back to the head: all the writeback debt is below it.
	src := mk()
	_, now := run(src, 0, append(append(span(trace.Read, 10, 14), span(trace.Write, 20, 24)...), span(trace.Read, 13, 14)...))
	used.Restore(src.Snapshot())
	checkLayout(t, used)
	fresh := mk()
	fresh.Restore(src.Snapshot())
	overLimit := span(trace.Write, 30, 31)
	got, _ := run(used, now, overLimit)
	want, _ := run(fresh, now, overLimit)
	sameResults(t, "flush after a restore over a stale cursor", got, want)
}

// TestRecyclingChainConcurrent mirrors the engine's stateful graph —
// one servicer stack snapshotting at every epoch boundary and running
// ahead, two worker stacks restoring those snapshots and replaying the
// epochs concurrently — and requires the workers' results to equal the
// serial run. Every Restore retires a worker's storage to the pool and
// every Snapshot may draw from it while the other goroutines are
// mid-epoch, so under -race this proves a pooled buffer is never one a
// live State or device still references.
func TestRecyclingChainConcurrent(t *testing.T) {
	const epochs, perEpoch = 12, 500
	reqs := stackWorkload(epochs*perEpoch, 600, 17)

	serial := churnStack(256)
	want, _ := run(serial, 0, reqs)

	type handoff struct {
		epoch int
		state device.State
		now   time.Duration
	}
	work := make(chan handoff)
	got := make([]device.Result, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := churnStack(256)
			for h := range work {
				dev.Restore(h.state)
				lo := h.epoch * perEpoch
				res, _ := run(dev, h.now, reqs[lo:lo+perEpoch])
				copy(got[lo:], res)
			}
		}()
	}
	servicer := churnStack(256)
	now := time.Duration(0)
	for e := 0; e < epochs; e++ {
		work <- handoff{epoch: e, state: servicer.Snapshot(), now: now}
		_, now = run(servicer, now, reqs[e*perEpoch:(e+1)*perEpoch])
	}
	close(work)
	wg.Wait()
	sameResults(t, "pipelined epochs", got, want)
	if servicer.hits != serial.hits || servicer.misses != serial.misses || servicer.flushed != serial.flushed {
		t.Fatalf("servicer counters diverge from the serial run")
	}
}

// TestSubmitSteadyStateAllocs pins the hot path at zero allocations:
// a full cache with evictions and high-water flushes firing, block log
// off (the engine-target mode).
func TestSubmitSteadyStateAllocs(t *testing.T) {
	s := churnStack(256)
	reqs := stackWorkload(4000, 2000, 29)
	_, now := run(s, 0, reqs) // fill, and grow slab and index to their final size
	misses, flushed := s.misses, s.flushed
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		now = s.Submit(now, reqs[i%len(reqs)]).Complete
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Submit allocates %.2f objects per request, want 0", allocs)
	}
	if s.resident != 256 || s.misses == misses || s.flushed == flushed {
		t.Fatalf("fixture did not keep the cache full and flushing: resident %d, misses +%d, flushed +%d",
			s.resident, s.misses-misses, s.flushed-flushed)
	}
}

// TestSlotSize pins the slab slot at 24 bytes: a full default cache
// snapshots 65,536 of them per epoch.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(cachePage{}); n > 24 {
		t.Fatalf("cachePage is %d bytes, want <= 24", n)
	}
}

// TestResetReusesStorage: Reset empties the cache in place.
func TestResetReusesStorage(t *testing.T) {
	s := churnStack(256)
	reqs := stackWorkload(2000, 1000, 31)
	want, _ := run(s, 0, reqs)
	slab, index := &s.slab[0], &s.index[0]
	s.Reset()
	checkLayout(t, s)
	if s.resident != 0 || s.find(0, reqs[0].LBA/8) != nilSlot {
		t.Fatalf("reset left pages resident")
	}
	got, _ := run(s, 0, reqs)
	sameResults(t, "rerun after Reset", got, want)
	if &s.slab[0] != slab || &s.index[0] != index {
		t.Fatalf("Reset reallocated the cache storage")
	}
}
