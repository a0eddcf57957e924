// Exchange migration study: the paper's motivating scenario. A mail
// server's block trace was collected on an HDD cluster a decade ago;
// we want to know how the workload behaves on a modern all-flash
// array. Naively accelerating or replaying the trace distorts the
// answer — this example quantifies by how much, using the ground
// truth the simulated substrate gives us.
//
//	go run ./examples/exchange-migration
package main

import (
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// The Exchange workload: 5000-user mail pattern, bursty async
	// flushes, frequent short idles (MSPS-style).
	profile := workload.Exchange()
	app := workload.Generate(profile, workload.GenOptions{Ops: 15000, Seed: 2026})

	// Collect the trace on the OLD system, and — because this is a
	// simulation study with a perfect crystal ball — also run the
	// same application on the NEW system to get the ground truth the
	// reconstruction methods are trying to predict.
	oldRes := app.Execute(device.NewHDD(device.DefaultHDDConfig()))
	truth := app.Execute(device.NewArray(device.DefaultArrayConfig()))
	old := oldRes.Trace
	old.TsdevKnown = false

	// Reconstruct with every method.
	t := &report.Table{
		Title:   "Exchange on flash: predicted vs actual",
		Headers: []string{"method", "duration", "avg |dTintt| vs actual", "idle kept"},
	}
	t.AddRow("actual (NEW)", truth.Trace.Duration(), "-", report.Percent(1))
	actualIdle := truth.TotalThink()
	for _, m := range baseline.Methods {
		rec, err := m.Run(old, device.NewArray(device.DefaultArrayConfig()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", m.Name, err)
			os.Exit(1)
		}
		gap, _ := core.InterArrivalGap(rec.InterArrivals(), truth.Trace.InterArrivals())
		kept := idleKept(rec, actualIdle)
		t.AddRow(m.Name, rec.Duration(), gap, report.Percent(kept))
	}
	t.Render(os.Stdout)

	fmt.Println()
	fmt.Println("Reading: Acceleration compresses everything (idle lost, huge gap);")
	fmt.Println("Revision gets service times right but drops think time; TraceTracker")
	fmt.Println("tracks the actual flash-migrated behaviour closest.")
}

// idleKept estimates how much of the actual idle mass a reconstruction
// retained: inter-arrival time in excess of its own recorded service
// time, relative to the ground-truth think total.
func idleKept(t *trace.Trace, actual interface{ Nanoseconds() int64 }) float64 {
	if actual.Nanoseconds() == 0 {
		return 0
	}
	var sum int64
	ia := t.InterArrivals()
	for i := 0; i < len(ia); i++ {
		if excess := ia[i] - t.Requests[i].Latency; excess > 0 {
			sum += excess.Nanoseconds()
		}
	}
	frac := float64(sum) / float64(actual.Nanoseconds())
	if frac > 1 {
		frac = 1
	}
	return frac
}
