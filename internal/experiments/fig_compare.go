package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
)

// Fig12Result reproduces Figure 12: the MSNFS inter-arrival CDFs under
// the idle-unaware methods (a) and the idle-aware methods (b), always
// alongside the Target (original OLD trace) and TraceTracker.
type Fig12Result struct {
	// Panel (a): Target, Acceleration, Revision, TraceTracker.
	Unaware []report.CDFSeries
	// Panel (b): Target, Fixed-th, Dynamic, TraceTracker.
	Aware []report.CDFSeries
}

// Fig12 reconstructs the MSNFS trace with all five methods.
func Fig12(cfg Config) (Fig12Result, error) {
	cfg = cfg.withDefaults()
	p, _ := workload.Lookup("MSNFS")
	old, _ := GenerateOld(p, 0, cfg.Ops, cfg.Seed)
	old.TsdevKnown = false // exercise the full inference path

	series := map[string]report.CDFSeries{}
	for _, m := range baseline.Methods {
		rec, err := m.Run(old, NewTarget())
		if err != nil {
			return Fig12Result{}, err
		}
		series[m.Name] = report.NewCDFSeries(m.Name, rec.InterArrivalMicros())
	}
	target := report.NewCDFSeries("Target", old.InterArrivalMicros())
	return Fig12Result{
		Unaware: []report.CDFSeries{target, series["Acceleration"], series["Revision"], series["TraceTracker"]},
		Aware:   []report.CDFSeries{target, series["Fixed-th"], series["Dynamic"], series["TraceTracker"]},
	}, nil
}

// Render implements the textual figure.
func (r Fig12Result) Render(w io.Writer) {
	report.RenderCDFs(w, "Fig 12a: Tintt CDF, idle-unaware methods (MSNFS)", r.Unaware...)
	report.RenderCDFs(w, "Fig 12b: Tintt CDF, idle-aware methods (MSNFS)", r.Aware...)
}

// Fig13Row is one workload's average Tintt gap between TraceTracker
// and each other method.
type Fig13Row struct {
	Workload string
	Gap      map[string]time.Duration // method name -> avg |ΔTintt|
}

// Fig13Result reproduces Figure 13.
type Fig13Result struct {
	Rows []Fig13Row
	// Mean aggregates each method's gap across workloads.
	Mean map[string]time.Duration
}

// fig13Methods is the figure's column order of the compared methods.
var fig13Methods = []string{"Dynamic", "Fixed-th", "Acceleration", "Revision"}

// Fig13 sweeps all 31 workload families.
func Fig13(cfg Config) (Fig13Result, error) {
	out := Fig13Result{Mean: map[string]time.Duration{}}
	sums := map[string]time.Duration{}
	err := eachFamily(cfg, func(f familyRun) error {
		row := Fig13Row{Workload: f.p.Name, Gap: map[string]time.Duration{}}
		for _, m := range baseline.Methods {
			if m.Name == "TraceTracker" {
				continue
			}
			other, err := m.Run(f.old, NewTarget())
			if err != nil {
				return fmt.Errorf("%s/%s: %w", f.p.Name, m.Name, err)
			}
			avg, _ := core.InterArrivalGap(f.tt, other)
			row.Gap[m.Name] = avg
			sums[m.Name] += avg
		}
		out.Rows = append(out.Rows, row)
		return nil
	})
	if err != nil {
		return out, err
	}
	for _, m := range fig13Methods {
		out.Mean[m] = sums[m] / time.Duration(len(out.Rows))
	}
	return out, nil
}

// Render implements the textual figure.
func (r Fig13Result) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Fig 13: avg |Tintt(TraceTracker) − Tintt(method)| per workload",
		Headers: append([]string{"workload"}, fig13Methods...),
	}
	for _, row := range r.Rows {
		cells := []any{row.Workload}
		for _, m := range fig13Methods {
			cells = append(cells, row.Gap[m])
		}
		t.AddRow(cells...)
	}
	cells := []any{"MEAN"}
	for _, m := range fig13Methods {
		cells = append(cells, r.Mean[m])
	}
	t.AddRow(cells...)
	t.Render(w)
}

// Fig14Row is one workload's target-vs-TraceTracker gap.
type Fig14Row struct {
	Workload string
	Avg, Max time.Duration
	// MedianTarget / MedianTT are the two traces' median Tintt values
	// (the paper quotes 2 ms vs 0.02 ms corpus-wide).
	MedianTarget, MedianTT time.Duration
}

// Fig14Result reproduces Figure 14.
type Fig14Result struct {
	Rows []Fig14Row
	// AvgOverall is the mean of the per-workload averages (the paper
	// reports 0.677 ms).
	AvgOverall time.Duration
}

// Fig14 sweeps all 31 families comparing the original trace with its
// reconstruction.
func Fig14(cfg Config) (Fig14Result, error) {
	var out Fig14Result
	var sum time.Duration
	err := eachFamily(cfg, func(f familyRun) error {
		avg, max := core.InterArrivalGap(f.old, f.tt)
		out.Rows = append(out.Rows, Fig14Row{
			Workload:     f.p.Name,
			Avg:          avg,
			Max:          max,
			MedianTarget: medianDur(f.old.InterArrivals()),
			MedianTT:     medianDur(f.tt.InterArrivals()),
		})
		sum += avg
		return nil
	})
	if err != nil {
		return out, err
	}
	out.AvgOverall = sum / time.Duration(len(out.Rows))
	return out, nil
}

// Render implements the textual figure.
func (r Fig14Result) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Fig 14: Tintt difference, target vs TraceTracker",
		Headers: []string{"workload", "avg", "max", "median(target)", "median(TT)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Workload, row.Avg, row.Max, row.MedianTarget, row.MedianTT)
	}
	t.Render(w)
	fmt.Fprintf(w, "overall average gap: %s\n", report.FormatDuration(r.AvgOverall))
}

// Fig15Workloads are the two detail workloads (largest gaps within
// their sets in the paper).
var Fig15Workloads = []string{"CFS", "ikki"}

// Fig15Result reproduces Figure 15: full CDF overlays for CFS and
// ikki.
type Fig15Result struct {
	// Overlays[workload] = {Target, TraceTracker} series.
	Overlays map[string][2]report.CDFSeries
	// Medians[workload] = {target median, TT median}.
	Medians map[string][2]time.Duration
}

// Fig15 builds the overlays.
func Fig15(cfg Config) (Fig15Result, error) {
	cfg = cfg.withDefaults()
	out := Fig15Result{
		Overlays: map[string][2]report.CDFSeries{},
		Medians:  map[string][2]time.Duration{},
	}
	for _, name := range Fig15Workloads {
		p, _ := workload.Lookup(name)
		old, _ := GenerateOld(p, 0, cfg.Ops, cfg.Seed)
		tt, err := baseline.TraceTracker(old, NewTarget())
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		out.Overlays[name] = [2]report.CDFSeries{
			report.NewCDFSeries("Target", old.InterArrivalMicros()),
			report.NewCDFSeries("TraceTracker", tt.InterArrivalMicros()),
		}
		out.Medians[name] = [2]time.Duration{medianDur(old.InterArrivals()), medianDur(tt.InterArrivals())}
	}
	return out, nil
}

// Render implements the textual figure.
func (r Fig15Result) Render(w io.Writer) {
	for _, name := range Fig15Workloads {
		ov := r.Overlays[name]
		report.RenderCDFs(w, "Fig 15: Tintt CDF, "+name, ov[0], ov[1])
		med := r.Medians[name]
		fmt.Fprintf(w, "%s medians: target=%s tracetracker=%s\n",
			name, report.FormatDuration(med[0]), report.FormatDuration(med[1]))
	}
}
