package device

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/ftl"
	"repro/internal/trace"
)

// tinyFTL is a small geometry, so GC pressure appears within a few
// thousand writes.
func tinyFTL() *FTLDevice {
	return NewFTLDevice(ftl.Config{
		Blocks:              64,
		PagesPerBlock:       32,
		PageKB:              4,
		OverprovisionPct:    0.15,
		GCTriggerFreeBlocks: 3,
		BackgroundGCTarget:  8,
	})
}

// TestFTLDeviceIdleGapsRunBackgroundGC drives the device the way a
// trace-driven study does — each request issues at its arrival, or at
// the previous completion if that is later — and checks that the gaps
// between requests are spent on background GC, which the same writes
// issued back to back never get.
func TestFTLDeviceIdleGapsRunBackgroundGC(t *testing.T) {
	run := func(gap time.Duration) ftl.Stats {
		d := tinyFTL()
		var now, at time.Duration
		for i := uint64(0); i < 3000; i++ {
			r := trace.Request{Arrival: at, LBA: i * 8 % 5000, Sectors: 8, Op: trace.Write}
			now = d.Submit(max(r.Arrival, now), r).Complete
			at += gap
		}
		return d.FTL().Stats()
	}
	// A gap outlasts a page program plus a block erase.
	idle, busy := run(10*time.Millisecond), run(0)
	if idle.HostWrites != 3000 || busy.HostWrites != 3000 {
		t.Fatalf("host writes = %d and %d, want 3000", idle.HostWrites, busy.HostWrites)
	}
	if idle.BackgroundGC == 0 || idle.IdleBudgetUsed == 0 {
		t.Fatalf("idle gaps ran no background GC: %+v", idle)
	}
	if busy.BackgroundGC != 0 || busy.IdleBudgetUsed != 0 {
		t.Fatalf("back-to-back writes ran background GC: %+v", busy)
	}
	if idle.ForegroundGC >= busy.ForegroundGC {
		t.Fatalf("foreground GC with gaps %d, without %d", idle.ForegroundGC, busy.ForegroundGC)
	}
}

// TestFTLDeviceReadsDoNotProgram checks that a read programs no page.
func TestFTLDeviceReadsDoNotProgram(t *testing.T) {
	d := tinyFTL()
	res := d.Submit(0, trace.Request{LBA: 0, Sectors: 64, Op: trace.Read})
	if res.Complete == 0 {
		t.Fatal("read took no time")
	}
	if s := d.FTL().Stats(); s.HostWrites != 0 || s.GCWrites != 0 {
		t.Fatalf("a read wrote pages: %+v", s)
	}
}

// TestNewFTLDeviceAllocs pins building the engine's default ftl target
// at a handful of allocations (the device, the FTL and its page map),
// not one or two per erase block. The collector is off while it counts:
// a cycle the megabyte arrays trigger makes allocations of its own.
func TestNewFTLDeviceAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(5, func() { NewFTLDevice(DefaultFTLDeviceConfig()) }); allocs > 8 {
		t.Fatalf("NewFTLDevice allocates %.0f objects, want <= 8", allocs)
	}
}
