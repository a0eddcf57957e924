package hoststack

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/trace"
)

// slowDev counts requests with a fixed latency, for precise assertions.
type slowDev struct {
	lat  time.Duration
	busy time.Duration
	n    int
}

func (d *slowDev) Name() string { return "slow" }
func (d *slowDev) Reset()       { d.busy, d.n = 0, 0 }
func (d *slowDev) Submit(at time.Duration, r trace.Request) device.Result {
	d.n++
	start := at
	if d.busy > start {
		start = d.busy
	}
	done := start + d.lat
	d.busy = done
	return device.Result{Start: start, Complete: done}
}

func small(inner device.Device) *Stack {
	return New(Config{
		CachePages:      64,
		PageKB:          4,
		WriteBack:       true,
		DirtyHighWater:  0.5,
		FlushBatch:      8,
		ReadAheadPages:  0,
		SyscallOverhead: time.Microsecond,
		HitLatency:      time.Microsecond,
	}, inner)
}

func rd(lba uint64, sectors uint32) trace.Request {
	return trace.Request{LBA: lba, Sectors: sectors, Op: trace.Read}
}
func wr(lba uint64, sectors uint32) trace.Request {
	return trace.Request{LBA: lba, Sectors: sectors, Op: trace.Write}
}

func TestReadMissThenHit(t *testing.T) {
	dev := &slowDev{lat: time.Millisecond}
	s := small(dev)
	miss := s.Submit(0, rd(0, 8))
	if miss.Complete-miss.Start < time.Millisecond {
		t.Fatalf("miss served at memory speed: %+v", miss)
	}
	hit := s.Submit(miss.Complete, rd(0, 8))
	if hit.Complete-hit.Start > 10*time.Microsecond {
		t.Fatalf("hit not served from cache: %+v", hit)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
	if dev.n != 1 {
		t.Fatalf("device saw %d requests, want 1", dev.n)
	}
}

func TestWriteBackCompletesAtMemorySpeed(t *testing.T) {
	dev := &slowDev{lat: time.Millisecond}
	s := small(dev)
	res := s.Submit(0, wr(0, 8))
	if res.Complete-res.Start > 10*time.Microsecond {
		t.Fatalf("write-back write waited on device: %+v", res)
	}
	if dev.n != 0 {
		t.Fatal("write should not reach the device before flush")
	}
}

func TestWriteThroughWaits(t *testing.T) {
	dev := &slowDev{lat: time.Millisecond}
	s := New(Config{
		CachePages: 64, PageKB: 4, WriteBack: false,
		SyscallOverhead: time.Microsecond, HitLatency: time.Microsecond,
	}, dev)
	res := s.Submit(0, wr(0, 8))
	if res.Complete-res.Start < time.Millisecond {
		t.Fatalf("write-through must wait for media: %+v", res)
	}
	if dev.n != 1 {
		t.Fatal("write-through must reach the device")
	}
}

func TestDirtyHighWaterFlushes(t *testing.T) {
	dev := &slowDev{lat: 100 * time.Microsecond}
	s := small(dev) // 64 pages, high water 0.5 => 32 dirty
	at := time.Duration(0)
	for i := uint64(0); i < 40; i++ {
		res := s.Submit(at, wr(i*8, 8))
		at = res.Complete
	}
	if dev.n == 0 {
		t.Fatal("flusher never ran despite exceeding high water")
	}
	if s.dirty > 32 {
		t.Fatalf("dirty pages %d above high water after flush", s.dirty)
	}
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	dev := &slowDev{lat: 10 * time.Microsecond}
	// Tiny cache, high water above 1 so only eviction flushes.
	s := New(Config{
		CachePages: 4, PageKB: 4, WriteBack: true, DirtyHighWater: 0.99,
		FlushBatch: 1, SyscallOverhead: time.Microsecond, HitLatency: time.Microsecond,
	}, dev)
	at := time.Duration(0)
	for i := uint64(0); i < 3; i++ { // 3 dirty < ceil(0.99*4)
		res := s.Submit(at, wr(i*8, 8))
		at = res.Complete
	}
	before := dev.n
	// Read misses displace the dirty pages.
	for i := uint64(100); i < 110; i++ {
		res := s.Submit(at, rd(i*8, 8))
		at = res.Complete
	}
	// The displaced dirty pages must have been written back.
	writes := 0
	for _, r := range s.BlockTrace().Requests {
		if r.Op == trace.Write {
			writes++
		}
	}
	if writes == 0 || dev.n <= before {
		t.Fatal("dirty eviction did not write back")
	}
}

func TestFlushDrainsAllDirty(t *testing.T) {
	dev := &slowDev{lat: 50 * time.Microsecond}
	s := small(dev)
	at := time.Duration(0)
	for i := uint64(0); i < 10; i++ {
		res := s.Submit(at, wr(i*8, 8))
		at = res.Complete
	}
	stall := s.Flush(at)
	if stall == 0 {
		t.Fatal("flush of dirty cache should cost time")
	}
	if s.dirty != 0 {
		t.Fatalf("dirty after flush: %d", s.dirty)
	}
	if s.Flush(at+stall) != 0 {
		t.Fatal("second flush should be free")
	}
}

func TestReadAheadPrefetches(t *testing.T) {
	dev := &slowDev{lat: time.Millisecond}
	s := New(Config{
		CachePages: 64, PageKB: 4, WriteBack: true, ReadAheadPages: 4,
		SyscallOverhead: time.Microsecond, HitLatency: time.Microsecond,
	}, dev)
	res := s.Submit(0, rd(0, 8)) // miss page 0, prefetch 1..4
	// Sequential continuation hits the prefetched pages.
	for p := uint64(1); p <= 4; p++ {
		hit := s.Submit(res.Complete, rd(p*8, 8))
		if hit.Complete-hit.Start > 10*time.Microsecond {
			t.Fatalf("page %d not prefetched", p)
		}
	}
	if dev.n != 1 {
		t.Fatalf("device requests = %d, want 1 (single fetch span)", dev.n)
	}
}

func TestBlockTraceRecordsBelowCache(t *testing.T) {
	dev := &slowDev{lat: 100 * time.Microsecond}
	s := small(dev)
	at := time.Duration(0)
	// One miss read, one hit read, several buffered writes + flush.
	res := s.Submit(at, rd(0, 8))
	at = res.Complete
	res = s.Submit(at, rd(0, 8))
	at = res.Complete
	for i := uint64(10); i < 14; i++ {
		res = s.Submit(at, wr(i*8, 8))
		at = res.Complete
	}
	s.Flush(at)
	blk := s.BlockTrace()
	if err := blk.Validate(); err != nil {
		t.Fatalf("block trace invalid: %v", err)
	}
	reads, writes := 0, 0
	for _, r := range blk.Requests {
		if r.Op == trace.Read {
			reads++
		} else {
			writes++
		}
	}
	if reads != 1 {
		t.Fatalf("block reads = %d, want 1 (hit absorbed)", reads)
	}
	if writes != 4 {
		t.Fatalf("block writes = %d, want 4 flushes", writes)
	}
	if !blk.TsdevKnown {
		t.Fatal("collected trace should carry latencies")
	}
}

func TestResetClears(t *testing.T) {
	dev := &slowDev{lat: time.Microsecond}
	s := small(dev)
	s.Submit(0, wr(0, 8))
	s.Reset()
	if s.dirty != 0 || s.HitRate() != 0 || s.BlockTrace().Len() != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestNameComposes(t *testing.T) {
	s := small(&slowDev{})
	if s.Name() != "hoststack(slow)" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	dev := &slowDev{lat: time.Microsecond}
	s := small(dev) // 64 pages
	at := time.Duration(0)
	for i := uint64(0); i < 1000; i++ {
		op := rd(i*8, 8)
		if i%3 == 0 {
			op = wr(i*8, 8)
		}
		res := s.Submit(at, op)
		at = res.Complete
	}
	if s.resident > 64 {
		t.Fatalf("cache holds %d pages, capacity 64", s.resident)
	}
	if n := len(lruKeys(s)); n != s.resident {
		t.Fatalf("LRU/index divergence: %d vs %d", n, s.resident)
	}
}
