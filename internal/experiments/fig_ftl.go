package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/ftl"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// --- Extension 4: downstream simulation impact ---------------------
//
// The paper's core warning is that trace-driven studies reach wrong
// conclusions when the trace's timing context is gone: its Section
// V-B frames inter-arrival idle as the budget for background tasks,
// and its motivating citations are flash studies whose garbage
// collection lives exactly in that budget. This experiment closes the
// loop: the same write-heavy workload, reconstructed by each method,
// drives a page-mapped FTL simulator whose GC prefers idle gaps. A
// reconstruction that destroyed the idle context starves background
// GC and inflates the foreground-stall picture a study would report.

// FTLImpactRow is one reconstruction method's downstream numbers.
type FTLImpactRow struct {
	Method string
	// WAF is the simulated write amplification. It differs by method:
	// GC in idle collects up to BackgroundGCTarget free blocks, earlier
	// and with more valid pages to move than foreground GC at the
	// trigger. On homes at 4,000 requests it reads 3.055–3.147 for the
	// rows that keep idle and 1.689 for Revision, which keeps none.
	WAF float64
	// ForegroundShare is the fraction of GC rounds that stalled host
	// writes.
	ForegroundShare float64
	// Stall is the total host-visible GC stall time.
	Stall time.Duration
	// IdleUsed is background-GC time drawn from the trace's idle.
	IdleUsed time.Duration
}

// FTLImpactResult compares the methods.
type FTLImpactResult struct {
	Workload string
	Rows     []FTLImpactRow
}

// FTLImpact reconstructs a write-heavy FIU workload with every method
// and replays each reconstruction through the FTL.
func FTLImpact(cfg Config) (FTLImpactResult, error) {
	cfg = cfg.withDefaults()
	out := FTLImpactResult{Workload: "homes"}
	p, _ := workload.Lookup("homes") // ~80% writes
	old, _ := GenerateOld(p, 0, cfg.Ops, cfg.Seed)

	// The FTL is sized so the trace's footprint wraps around the
	// logical space several times (the device maps pages modulo its
	// logical space): sustained overwrite pressure is what makes GC run
	// at all at experiment scale. The geometry is one the engine's ftl
	// target would accept, so a write never meets ftl.ErrFull.
	ftlCfg := ftl.Config{
		Blocks:              96,
		PagesPerBlock:       32,
		PageKB:              4,
		OverprovisionPct:    0.10,
		GCTriggerFreeBlocks: 4,
		BackgroundGCTarget:  16,
	}
	// Each request issues at its arrival, or at the previous
	// completion if the device is still busy; the gap in between is
	// the idle the FTL offers to background GC.
	study := func(name string, tr *trace.Trace) {
		dev := device.NewFTLDevice(ftlCfg)
		var now time.Duration
		for _, r := range tr.Requests {
			now = dev.Submit(max(r.Arrival, now), r).Complete
		}
		s := dev.FTL().Stats()
		out.Rows = append(out.Rows, FTLImpactRow{
			Method:          name,
			WAF:             s.WAF(),
			ForegroundShare: s.ForegroundShare(),
			Stall:           s.ForegroundStall,
			IdleUsed:        s.IdleBudgetUsed,
		})
	}
	// "Target" row: the original trace with its real timing.
	study("Target(old)", old)
	for _, m := range baseline.Methods {
		tr, err := m.Run(old, NewTarget())
		if err != nil {
			return out, fmt.Errorf("%s: %w", m.Name, err)
		}
		study(m.Name, tr)
	}
	return out, nil
}

// Render implements the textual report.
func (r FTLImpactResult) Render(w io.Writer) {
	t := &report.Table{
		Title:   "FTL study driven by each reconstruction (" + r.Workload + ")",
		Headers: []string{"trace", "WAF", "foreground GC", "stall", "idle GC time"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Method, fmt.Sprintf("%.3f", row.WAF),
			report.Percent(row.ForegroundShare), row.Stall, row.IdleUsed)
	}
	t.Render(w)
	fmt.Fprintln(w, "Reading: idle-destroying reconstructions starve background GC and")
	fmt.Fprintln(w, "inflate the foreground-stall picture a lifetime study would report.")
}
