// Corpus characterization: sweep a cross-section of the 31 workload
// families, reconstruct each trace, and tabulate the idle structure —
// the per-family view behind the paper's Figures 16 and 17 and the
// system implications discussed in Section V-B.
//
//	go run ./examples/characterization
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	families := []string{
		"MSNFS", "CFS", "DAP", // MSPS: idle-frequent, idle-short
		"ikki", "homes", "madmax", // FIU: idle-rare, idle-long
		"wdev", "web", "src1", // MSRC: mixed
	}
	t := &report.Table{
		Title: "idle structure across corpora",
		Headers: []string{
			"workload", "set", "idle freq", "avg idle",
			"idle<=10ms", "10-100ms", ">100ms", "async",
		},
	}
	for _, name := range families {
		p, ok := workload.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %s\n", name)
			os.Exit(1)
		}
		old := workload.Collect(p, workload.GenOptions{Ops: 8000, Seed: 4}, device.NewHDD(device.DefaultHDDConfig())).Trace
		_, rep, err := core.Reconstruct(old, device.NewArray(device.DefaultArrayConfig()), core.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		var short, mid, long int
		for _, d := range rep.Idle {
			switch {
			case d == 0:
			case d <= 10*time.Millisecond:
				short++
			case d <= 100*time.Millisecond:
				mid++
			default:
				long++
			}
		}
		var avg time.Duration
		if rep.IdleCount > 0 {
			avg = rep.IdleTotal / time.Duration(rep.IdleCount)
		}
		denom := float64(max(rep.IdleCount, 1))
		t.AddRow(name, p.Set,
			report.Percent(float64(rep.IdleCount)/float64(old.Len())),
			avg,
			report.Percent(float64(short)/denom),
			report.Percent(float64(mid)/denom),
			report.Percent(float64(long)/denom),
			report.Percent(float64(rep.AsyncCount)/float64(old.Len())),
		)
	}
	t.Render(os.Stdout)

	fmt.Println()
	fmt.Println("Reading: MSPS families idle often but briefly; FIU/MSRC families idle")
	fmt.Println("rarely but for seconds — so nearly all of their wall time is idle, the")
	fmt.Println("background-task budget the paper's Section V-B discusses.")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
