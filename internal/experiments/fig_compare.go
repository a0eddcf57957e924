package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/trace"
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

// Fig12 reads the MSNFS cell: the Tsdev-unknown trace is the Target,
// and every method reconstructs it from the fit.
func Fig12(cfg Config) (Fig12Result, error) {
	p, _ := workload.Lookup("MSNFS")
	c, err := newCell(p, cfg)
	if err != nil {
		return Fig12Result{}, err
	}
	series := func(name string) report.CDFSeries {
		return report.NewCDFSeries(name, trace.Micros(c.rungs[name]))
	}
	target := report.NewCDFSeries("Target", trace.Micros(c.old))
	tt := report.NewCDFSeries("TraceTracker", trace.Micros(c.rungs["inferred"]))
	return Fig12Result{
		Unaware: []report.CDFSeries{target, series("Acceleration"), series("Revision"), tt},
		Aware:   []report.CDFSeries{target, series("Fixed-th"), series("Dynamic"), tt},
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

// add gaps the corpus view's TraceTracker against each other method.
func (r *Fig13Result) add(c *cell) {
	row := Fig13Row{Workload: c.p.Name, Gap: map[string]time.Duration{}}
	for _, m := range fig13Methods {
		other := c.rungs[m]
		if m == "Dynamic" {
			other = c.dynamic
		}
		row.Gap[m], _ = core.InterArrivalGap(c.tt, other)
	}
	r.Rows = append(r.Rows, row)
}

// finish averages each method's gap over the workloads.
func (r *Fig13Result) finish() {
	r.Mean = map[string]time.Duration{}
	for _, m := range fig13Methods {
		var sum time.Duration
		for _, row := range r.Rows {
			sum += row.Gap[m]
		}
		r.Mean[m] = sum / time.Duration(len(r.Rows))
	}
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

// add compares a family's original trace with its reconstruction.
func (r *Fig14Result) add(c *cell) {
	avg, max := core.InterArrivalGap(c.old, c.tt)
	r.Rows = append(r.Rows, Fig14Row{
		Workload:     c.p.Name,
		Avg:          avg,
		Max:          max,
		MedianTarget: medianDur(c.old),
		MedianTT:     medianDur(c.tt),
	})
}

// finish averages the per-workload gaps.
func (r *Fig14Result) finish() {
	var sum time.Duration
	for _, row := range r.Rows {
		sum += row.Avg
	}
	r.AvgOverall = sum / time.Duration(len(r.Rows))
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

// Fig15 builds the overlays from the two families' cells.
func Fig15(cfg Config) (Fig15Result, error) {
	out := Fig15Result{
		Overlays: map[string][2]report.CDFSeries{},
		Medians:  map[string][2]time.Duration{},
	}
	for _, name := range Fig15Workloads {
		p, _ := workload.Lookup(name)
		c, err := newCell(p, cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		out.Overlays[name] = [2]report.CDFSeries{
			report.NewCDFSeries("Target", trace.Micros(c.old)),
			report.NewCDFSeries("TraceTracker", trace.Micros(c.tt)),
		}
		out.Medians[name] = [2]time.Duration{medianDur(c.old), medianDur(c.tt)}
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
