package hoststack

// Tests for what the flat layout adds to the model's contract: index
// and list consistency under churn, an allocation-free steady state,
// and a Reset that empties the cache in place. That Reset forgets the
// flush cursor is pinned by FuzzStackVsOracle's hop seeds.

import (
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
// holds 65,536 of them.
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

// TestCacheBytesBound: a cache churned past its capacity has grown its
// slab and index to exactly CacheBytes, and a Reset keeps them there.
func TestCacheBytesBound(t *testing.T) {
	for _, capacity := range []int{48, 200, 1024} {
		s := churnStack(capacity)
		run(s, 0, stackWorkload(20_000, 8*capacity, 3))
		held := func() int64 {
			return int64(cap(s.slab))*int64(unsafe.Sizeof(cachePage{})) + int64(len(s.index))*int64(unsafe.Sizeof(int32(0)))
		}
		want := CacheBytes(Config{CachePages: capacity})
		if got := held(); got != want {
			t.Fatalf("%d pages: the full cache holds %d B, CacheBytes says %d", capacity, got, want)
		}
		s.Reset()
		if got := held(); got != want {
			t.Fatalf("%d pages: %d B after Reset, want the %d it kept", capacity, got, want)
		}
	}
	if got, want := CacheBytes(Config{}), CacheBytes(DefaultConfig()); got != want || got != 2<<20 {
		t.Fatalf("CacheBytes of the defaults = %d (zero config %d), want 2 MiB", want, got)
	}
}
