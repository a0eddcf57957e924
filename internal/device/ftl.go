package device

// FTLDevice adapts the page-mapped FTL simulator (internal/ftl) to the
// Device interface, making it a first-class reconstruction target: the
// engine replays a trace against it and the idle gaps the
// reconstruction preserves become the background-GC budget — the
// paper's central claim, measurable per job. It is the one driver of
// the FTL, for jobs and trace-driven studies alike: the gap since the
// previous completion is offered to background GC, then each page of
// the request is serviced (reads at tR, writes at tPROG plus any
// foreground-GC stall).
//
// The FTL is not shard-safe — the mapping table, wear and GC debt
// persist across idle periods — so the engine services it in one
// ordered pass over one device. Reset returns it to a freshly built
// device's state.

import (
	"time"

	"repro/internal/ftl"
	"repro/internal/trace"
)

// DefaultFTLDeviceConfig is the engine target's FTL geometry: a 1 GiB
// device rather than the experiments' 8 GiB (ftl.DefaultConfig), small
// enough for corpus-scale traces to create GC pressure. Results depend
// on it; changing it moves every default ftl reconstruction.
func DefaultFTLDeviceConfig() ftl.Config {
	cfg := ftl.DefaultConfig()
	cfg.Blocks = 1024
	cfg.PagesPerBlock = 128
	return cfg
}

// FTLDevice is a Device backed by an ftl.FTL.
type FTLDevice struct {
	f *ftl.FTL
	// lastComplete is the completion time of the previous request; the
	// gap to the next submission is the background-GC budget.
	lastComplete time.Duration
}

// NewFTLDevice builds an FTL-backed device (zero cfg fields default as
// in ftl.New).
func NewFTLDevice(cfg ftl.Config) *FTLDevice {
	return &FTLDevice{f: ftl.New(cfg)}
}

// Name implements Device.
func (d *FTLDevice) Name() string { return "ftl-pagemap" }

// Reset implements Device.
func (d *FTLDevice) Reset() {
	d.f.Reset()
	d.lastComplete = 0
}

// FTL returns the underlying simulator (for stats inspection).
func (d *FTLDevice) FTL() *ftl.FTL { return d.f }

// Submit implements Device: offer the idle gap since the previous
// completion to background GC, then service the request page by page.
// The synchronous replay loop guarantees non-decreasing `at` at or
// after the previous completion, so the gap is exactly the idle period
// the reconstruction inferred.
//
//tracelint:hotpath
func (d *FTLDevice) Submit(at time.Duration, r trace.Request) Result {
	if at > d.lastComplete {
		d.f.Idle(at - d.lastComplete)
	}
	// PagesOf reduces first into (-logical, logical), so the span wraps
	// at the end of the logical space by a compare, not a division.
	lpn, count := d.f.PagesOf(r)
	logical := d.f.LogicalPages()
	var svc time.Duration
	for ; count > 0; count-- {
		if r.Op == trace.Read {
			svc += d.f.Read(lpn)
		} else {
			// ErrFull is unreachable on a sanely overprovisioned
			// geometry (validated at config time); the partial stall is
			// still charged if it ever fires.
			dur, _ := d.f.Write(lpn)
			svc += dur
		}
		if lpn++; lpn == logical {
			lpn = 0
		}
	}
	complete := at + svc
	d.lastComplete = complete
	return Result{Start: at, Complete: complete}
}

// DeviceStats implements StatsReporter with the lifetime-study numbers
// the FTL accumulates.
func (d *FTLDevice) DeviceStats() []Stat {
	s := d.f.Stats()
	return []Stat{
		{Name: "host_writes", Value: float64(s.HostWrites)},
		{Name: "gc_writes", Value: float64(s.GCWrites)},
		{Name: "erases", Value: float64(s.Erases)},
		{Name: "foreground_gc", Value: float64(s.ForegroundGC)},
		{Name: "background_gc", Value: float64(s.BackgroundGC)},
		{Name: "foreground_stall_us", Value: float64(s.ForegroundStall) / float64(time.Microsecond)},
		{Name: "idle_budget_used_us", Value: float64(s.IdleBudgetUsed) / float64(time.Microsecond)},
		{Name: "waf", Value: s.WAF()},
		{Name: "wear_spread", Value: s.WearSpread()},
	}
}
