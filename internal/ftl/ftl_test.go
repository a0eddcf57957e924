package ftl

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// tiny returns a small FTL so GC pressure appears quickly.
func tiny() *FTL {
	return New(Config{
		Blocks:              64,
		PagesPerBlock:       32,
		PageKB:              4,
		OverprovisionPct:    0.15,
		GCTriggerFreeBlocks: 3,
		BackgroundGCTarget:  8,
	})
}

func TestWriteReadBasics(t *testing.T) {
	f := tiny()
	d, err := f.Write(0)
	if err != nil {
		t.Fatal(err)
	}
	if d < f.cfg.ProgramLatency {
		t.Fatalf("write time %v below tPROG", d)
	}
	if got := f.Read(0); got != f.cfg.ReadLatency {
		t.Fatalf("read time %v", got)
	}
	s := f.Stats()
	if s.HostWrites != 1 || s.GCWrites != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.WAF() != 1 {
		t.Fatalf("WAF of fresh device = %v", s.WAF())
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	f := tiny()
	for i := 0; i < 10; i++ {
		if _, err := f.Write(7); err != nil {
			t.Fatal(err)
		}
	}
	// One logical page maps to exactly one valid physical page.
	valid := 0
	for i := range f.meta {
		valid += int(f.meta[i].validCount)
	}
	if valid != 1 {
		t.Fatalf("valid pages = %d, want 1", valid)
	}
}

func TestGCReclaimsUnderPressure(t *testing.T) {
	f := tiny()
	// Hammer a small hot set far beyond physical capacity: GC must
	// keep reclaiming invalid pages without error.
	totalPages := int64(64 * 32)
	for i := int64(0); i < totalPages*4; i++ {
		if _, err := f.Write(i % 100); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s := f.Stats()
	if s.Erases == 0 {
		t.Fatal("GC never ran")
	}
	if s.WAF() < 1 {
		t.Fatalf("WAF %v < 1", s.WAF())
	}
}

// TestWriteSteadyStateAllocs pins the hot path at zero allocations: a
// device past its first fill, with foreground GC stalling writes and
// background GC draining idle grants, erases blocks and cycles the free
// ring without touching the heap.
func TestWriteSteadyStateAllocs(t *testing.T) {
	f := tiny()
	lpn := int64(0)
	write := func() {
		if _, err := f.Write(lpn * 7 % 1500); err != nil {
			t.Fatal(err)
		}
		lpn++
	}
	for i := 0; i < 64*32*2; i++ { // fill, and bring GC to steady state
		write()
	}
	before := f.Stats()
	// AllocsPerRun reports a whole-number average, so one run spans two
	// blocks' worth of writes: every run erases at least one block.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			write()
			f.Read(lpn % 1500)
		}
		f.Idle(20 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Write/Read/Idle allocates %.0f objects per 64 writes, want 0", allocs)
	}
	after := f.Stats()
	if after.ForegroundGC == before.ForegroundGC || after.BackgroundGC == before.BackgroundGC ||
		after.ForegroundStall == before.ForegroundStall || after.Erases < before.Erases+64 {
		t.Fatalf("fixture did not keep GC firing in both modes: before %+v, after %+v", before, after)
	}
}

func TestColdSequentialFillDoesNotErrFull(t *testing.T) {
	f := tiny()
	// Write every logical page exactly once: nothing to reclaim, but
	// the device must absorb the full logical space.
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if _, err := f.Write(lpn); err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
	}
}

func TestIdleRunsBackgroundGC(t *testing.T) {
	f := tiny()
	// Create garbage.
	for i := int64(0); i < int64(64*32)*2; i++ {
		if _, err := f.Write(i % 200); err != nil {
			t.Fatal(err)
		}
	}
	before := f.Stats()
	used := f.Idle(time.Second)
	after := f.Stats()
	if used == 0 {
		t.Fatal("idle budget unused despite garbage")
	}
	if after.BackgroundGC <= before.BackgroundGC {
		t.Fatal("no background GC rounds")
	}
	if after.IdleBudgetUsed != used {
		t.Fatalf("budget accounting: %v vs %v", after.IdleBudgetUsed, used)
	}
}

func TestIdleRespectsBudget(t *testing.T) {
	f := tiny()
	for i := int64(0); i < int64(64*32)*2; i++ {
		if _, err := f.Write(i % 200); err != nil {
			t.Fatal(err)
		}
	}
	budget := 5 * time.Millisecond
	if used := f.Idle(budget); used > budget {
		t.Fatalf("used %v exceeds budget %v", used, budget)
	}
}

func TestIdleBudgetReducesForegroundGC(t *testing.T) {
	// The package's reason for existing: with idle gaps, GC shifts to
	// the background; without them it stalls the host.
	run := func(withIdle bool) Stats {
		f := tiny()
		for i := int64(0); i < int64(64*32)*3; i++ {
			if _, err := f.Write(i % 300); err != nil {
				t.Fatal(err)
			}
			if withIdle && i%100 == 99 {
				f.Idle(100 * time.Millisecond)
			}
		}
		return f.Stats()
	}
	idle := run(true)
	busy := run(false)
	if idle.ForegroundGC >= busy.ForegroundGC {
		t.Fatalf("idle run foreground GC %d should be below busy run %d",
			idle.ForegroundGC, busy.ForegroundGC)
	}
	if idle.BackgroundGC == 0 {
		t.Fatal("idle run should do background GC")
	}
	if busy.ForegroundStall == 0 {
		t.Fatal("busy run should record stalls")
	}
}

func TestStatsWearBounds(t *testing.T) {
	f := tiny()
	for i := int64(0); i < int64(64*32)*3; i++ {
		if _, err := f.Write(i % 150); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.MaxErase < s.MinErase {
		t.Fatalf("wear bounds inverted: %+v", s)
	}
	if s.WearSpread() < 1 {
		t.Fatalf("wear spread %v < 1", s.WearSpread())
	}
}

func TestWriteNegativeLPN(t *testing.T) {
	f := tiny()
	if _, err := f.Write(-1); err == nil {
		t.Fatal("negative lpn accepted")
	}
}

func TestPagesOf(t *testing.T) {
	f := tiny() // 4KB pages = 8 sectors
	first, count := f.PagesOf(trace.Request{LBA: 16, Sectors: 8})
	if first != 2 || count != 1 {
		t.Fatalf("PagesOf(16,8) = %d,%d", first, count)
	}
	first, count = f.PagesOf(trace.Request{LBA: 4, Sectors: 8})
	if first != 0 || count != 2 { // straddles pages 0 and 1
		t.Fatalf("PagesOf(4,8) = %d,%d", first, count)
	}
}

func TestDefaultsApplied(t *testing.T) {
	f := New(Config{})
	if f.cfg.Blocks != DefaultConfig().Blocks {
		t.Fatal("defaults not applied")
	}
	if f.LogicalPages() <= 0 {
		t.Fatal("no logical space")
	}
}

// BenchmarkFTLWriteSteadyGC times the GC path the engine's default
// geometry never reaches on a benchmark trace: TestWriteSteadyStateAllocs'
// tiny device at steady state, one op being 64 scattered writes and
// reads and an idle grant, with foreground and background GC both
// erasing blocks throughout.
func BenchmarkFTLWriteSteadyGC(b *testing.B) {
	f := tiny()
	lpn := int64(0)
	write := func() {
		if _, err := f.Write(lpn * 7 % 1500); err != nil {
			b.Fatal(err)
		}
		lpn++
	}
	for i := 0; i < 64*32*2; i++ {
		write()
	}
	before := f.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			write()
			f.Read(lpn % 1500)
		}
		f.Idle(20 * time.Millisecond)
	}
	b.StopTimer()
	if after := f.Stats(); after.ForegroundGC == before.ForegroundGC || after.BackgroundGC == before.BackgroundGC {
		b.Fatalf("GC did not fire in both modes: before %+v, after %+v", before, after)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/write")
}
