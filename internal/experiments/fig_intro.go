package experiments

import (
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig1Result reproduces Figure 1: the CDF of inter-arrival times seen
// on the OLD system, the NEW system (same application), and the
// Acceleration / Revision reconstructions of the OLD trace.
type Fig1Result struct {
	Old, New, Revision, Acceleration report.CDFSeries
	// ShorterFrac is the fraction of Acceleration inter-arrivals
	// shorter than NEW's at matching instruction positions (the
	// paper: first half of the CDF is shorter by 88% on average,
	// losing 98% of user idles).
	AccelShorterFrac float64
	// RevisionIdleLossFrac is the fraction of NEW-trace idle period
	// lost by Revision (paper: 69% of total idle periods).
	RevisionIdleLossFrac float64
}

// Fig1 runs the motivating experiment. The paper issues 70M
// MSNFS-patterned instructions with ~20% injected user idles, 14M of
// them asynchronous; this reproduction runs the same pattern at
// cfg.Ops scale (the distributions stabilize by tens of thousands).
func Fig1(cfg Config) Fig1Result {
	cfg = cfg.withDefaults()
	p, _ := workload.Lookup("MSNFS")
	p.IdleFreq = 0.20  // the paper's injected idle share
	p.AsyncFrac = 0.20 // 14M of 70M instructions

	old, newRes := executeBoth(p, cfg.Ops, 1^cfg.Seed)

	acc := baseline.Acceleration(old, baseline.DefaultAccelerationFactor)
	rev := baseline.Revision(old, NewTarget())

	r := Fig1Result{
		Old:          report.NewCDFSeries("OLD", old.InterArrivalMicros()),
		New:          report.NewCDFSeries("NEW", newRes.Trace.InterArrivalMicros()),
		Revision:     report.NewCDFSeries("Revision", rev.InterArrivalMicros()),
		Acceleration: report.NewCDFSeries("Acceleration", acc.InterArrivalMicros()),
	}

	newIA := newRes.Trace.InterArrivals()
	accIA := acc.InterArrivals()
	shorter := 0
	for i := range newIA {
		if accIA[i] < newIA[i] {
			shorter++
		}
	}
	r.AccelShorterFrac = ratio(shorter, len(newIA))

	// Idle mass: think time is ground truth on the NEW system;
	// Revision's total duration beyond pure service approximates the
	// idle it retained (closed loop retains none).
	newIdle := newRes.TotalThink()
	revIdle := idleMassAbove(rev)
	if newIdle > 0 {
		r.RevisionIdleLossFrac = max(0, 1-float64(revIdle)/float64(newIdle))
	}
	return r
}

// idleMassAbove estimates how much think time a reconstructed trace
// retained: the sum of its inter-arrivals in excess of the matching
// new-system service times.
func idleMassAbove(t *trace.Trace) time.Duration {
	var sum time.Duration
	ia := t.InterArrivals()
	for i := range ia {
		sum += max(ia[i]-t.Requests[i].Latency, 0)
	}
	return sum
}

// Render implements the textual figure.
func (r Fig1Result) Render(w io.Writer) {
	report.RenderCDFs(w, "Fig 1: CDF of inter-arrival times (MSNFS pattern)",
		r.Old, r.New, r.Revision, r.Acceleration)
	t := &report.Table{Headers: []string{"metric", "value"}}
	t.AddRow("Acceleration Tintt shorter than NEW", report.Percent(r.AccelShorterFrac))
	t.AddRow("Revision idle-period loss vs NEW", report.Percent(r.RevisionIdleLossFrac))
	t.Render(w)
}

// Fig3Workloads are the five open-license traces Figure 3 compares.
var Fig3Workloads = []string{"MSNFS", "webusers", "Exchange", "homes", "wdev"}

// Fig3Row is one workload's longer/equal/shorter breakdown for one
// method.
type Fig3Row struct {
	Workload               string
	Longer, Equal, Shorter float64
}

// Fig3Result reproduces Figure 3: per-instruction comparison of
// reconstructed inter-arrival times against the real NEW system.
type Fig3Result struct {
	Acceleration []Fig3Row // Fig 3a
	Revision     []Fig3Row // Fig 3b
}

// equalTolerance matches the paper's "equal" band: reconstructed
// inter-arrivals within ±10% of the NEW system's count as equal.
const equalTolerance = 0.10

// Fig3 runs the comparison for the five workloads.
func Fig3(cfg Config) Fig3Result {
	cfg = cfg.withDefaults()
	var out Fig3Result
	for _, name := range Fig3Workloads {
		p, _ := workload.Lookup(name)
		old, newRes := executeBoth(p, cfg.Ops, 3^cfg.Seed)

		acc := baseline.Acceleration(old, baseline.DefaultAccelerationFactor)
		rev := baseline.Revision(old, NewTarget())
		out.Acceleration = append(out.Acceleration, breakdown(name, acc, newRes.Trace))
		out.Revision = append(out.Revision, breakdown(name, rev, newRes.Trace))
	}
	return out
}

func breakdown(name string, got, ref *trace.Trace) Fig3Row {
	gi, ri := got.InterArrivals(), ref.InterArrivals()
	n := min(len(gi), len(ri))
	var longer, equal, shorter int
	for i := 0; i < n; i++ {
		g, r := float64(gi[i]), float64(ri[i])
		switch {
		case g > r*(1+equalTolerance):
			longer++
		case g < r*(1-equalTolerance):
			shorter++
		default:
			equal++
		}
	}
	return Fig3Row{
		Workload: name,
		Longer:   ratio(longer, n),
		Equal:    ratio(equal, n),
		Shorter:  ratio(shorter, n),
	}
}

// Render implements the textual figure.
func (r Fig3Result) Render(w io.Writer) {
	render := func(title string, rows []Fig3Row) {
		t := &report.Table{Title: title, Headers: []string{"workload", "longer", "equal", "shorter"}}
		for _, row := range rows {
			t.AddRow(row.Workload, report.Percent(row.Longer), report.Percent(row.Equal), report.Percent(row.Shorter))
		}
		t.Render(w)
	}
	render("Fig 3a: Acceleration vs NEW", r.Acceleration)
	render("Fig 3b: Revision vs NEW", r.Revision)
}
