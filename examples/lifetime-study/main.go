// Lifetime study distortion: the paper's reference [8] improves NAND
// lifetime using traces accelerated 100x. This example replays that
// methodology on the simulated substrate: the same workload trace,
// accelerated by increasing factors, drives the engine's FTL target
// (device.FTLDevice, which offers every gap before a request's issue
// to background GC) — and the background-GC picture a lifetime study
// would base its conclusions on changes with the factor, exactly the
// distortion TraceTracker's reconstruction avoids.
//
//	go run ./examples/lifetime-study
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/ftl"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// A write-heavy FIU workload with a diurnal cycle: long night
	// idles are precisely the budget background GC lives on.
	p, _ := workload.Lookup("homes")
	app := workload.Generate(p, workload.GenOptions{
		Ops: 12000, Seed: 7, DiurnalOps: 6000,
	})
	old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	old.TsdevKnown = false

	ftlCfg := ftl.Config{
		Blocks: 96, PagesPerBlock: 32, PageKB: 4,
		OverprovisionPct: 0.10, GCTriggerFreeBlocks: 4, BackgroundGCTarget: 16,
	}

	t := &report.Table{
		Title:   "FTL study vs trace acceleration factor (homes, diurnal)",
		Headers: []string{"trace", "WAF", "foreground GC", "stall", "idle GC time"},
	}
	study := func(label string, tr *trace.Trace) {
		dev := device.NewFTLDevice(ftlCfg)
		var now time.Duration
		for _, r := range tr.Requests {
			now = dev.Submit(max(r.Arrival, now), r).Complete
		}
		s := dev.FTL().Stats()
		t.AddRow(label, fmt.Sprintf("%.3f", s.WAF()), report.Percent(s.ForegroundShare()),
			s.ForegroundStall, s.IdleBudgetUsed)
	}
	for _, factor := range []float64{1, 10, 100, 1000} {
		label := fmt.Sprintf("accelerated %gx", factor)
		if factor == 1 {
			label = "original"
		}
		study(label, baseline.Acceleration(old, factor))
	}

	// The TraceTracker alternative: remaster for the flash target
	// instead of blind acceleration.
	tt, err := baseline.TraceTracker(old, device.NewArray(device.DefaultArrayConfig()))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetracker: %v\n", err)
		os.Exit(1)
	}
	study("TraceTracker", tt)
	t.Render(os.Stdout)

	fmt.Println()
	fmt.Println("Reading: each decade of acceleration strips another decade of idle")
	fmt.Println("budget; by 100x (the factor [8] used) background GC is squeezed and")
	fmt.Println("the stall picture no longer resembles the original workload's.")
}
