// Quickstart: reconstruct a decade-old block trace for a modern
// all-flash array in five steps.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// 1. Obtain an "old" block trace. Real deployments would load one
	// with trace.ReadFormat (any of trace.Formats(trace.Input), or
	// "auto" to sniff it); here we synthesize an FIU-style workload and
	// collect it on the simulated 2007-era HDD node, which is exactly
	// how the public corpora were captured.
	profile, _ := workload.Lookup("homes")
	app := workload.Generate(profile, workload.GenOptions{Ops: 20000, Seed: 1})
	old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	old.TsdevKnown = false // FIU traces carry no completion timestamps

	// 2. Build the reconstruction target: the paper's evaluation node,
	// four NVMe SSDs striped into an all-flash array.
	target := device.NewArray(device.DefaultArrayConfig())

	// 3. Reconstruct. TraceTracker infers per-instruction idle
	// periods from the old trace's inter-arrival structure, replays
	// the instructions on the target with those idles, and restores
	// asynchronous-mode timing.
	remastered, rep, err := core.Reconstruct(old, target, core.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "reconstruct: %v\n", err)
		os.Exit(1)
	}

	// 4. Inspect what the inference recovered.
	t := &report.Table{Title: "reconstruction", Headers: []string{"metric", "old", "remastered"}}
	t.AddRow("requests", old.Len(), remastered.Len())
	t.AddRow("duration", old.Duration(), remastered.Duration())
	t.AddRow("median Tintt", medianIntt(old), medianIntt(remastered))
	t.Render(os.Stdout)

	m := &report.Table{Title: "inferred context", Headers: []string{"metric", "value"}}
	m.AddRow("idle instructions", rep.IdleCount)
	m.AddRow("total idle preserved", rep.IdleTotal)
	m.AddRow("async instructions", rep.AsyncCount)
	m.AddRow("beta (us/sector)", rep.Model.BetaMicros)
	m.AddRow("eta (us/sector)", rep.Model.EtaMicros)
	m.Render(os.Stdout)

	// 5. The remastered trace is a regular *trace.Trace: write it out
	// with trace.WriteCSV for downstream simulators.
	fmt.Println("ok: remastered trace ready for simulation studies")
}

func medianIntt(t *trace.Trace) time.Duration {
	us := trace.Micros(t.InterArrivals())
	if len(us) == 0 {
		return 0
	}
	sort.Float64s(us)
	return time.Duration(us[len(us)/2] * float64(time.Microsecond))
}
