package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/infer"
	"repro/internal/interp"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig5Result reproduces Figure 5's CDF-shape taxonomy on synthetic
// populations and on real per-size groups of a generated workload.
type Fig5Result struct {
	// Synthetic maps the three constructed populations to their
	// classified shape (must match the construction).
	Synthetic map[string]infer.Shape
	// WorkloadGroups lists shape classifications of the per-size
	// groups of an MSNFS trace.
	WorkloadGroups []Fig5Group
}

// Fig5Group is one per-size group's classified shape.
type Fig5Group struct {
	Key   infer.GroupKey
	N     int
	Shape infer.Shape
}

// Fig5 builds the three canonical populations of Fig 5 and classifies
// both them and a real workload's groups.
func Fig5(cfg Config) Fig5Result {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(5 ^ cfg.Seed))
	r := Fig5Result{Synthetic: map[string]infer.Shape{}}

	// sample draws n values of f, in order.
	sample := func(n int, f func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	unimodal := append(sample(1800, func() float64 { return 300 + rng.Float64()*6 }),
		sample(200, func() float64 { return math.Pow(10, rng.Float64()*5) })...)
	chunky := sample(2000, func() float64 { return math.Pow(10, 1+rng.Float64()*4) })
	bimodal := append(sample(1000, func() float64 { return 200 + rng.Float64()*4 }),
		sample(1000, func() float64 { return 50000 + rng.Float64()*1000 })...)
	r.Synthetic["global-maxima"] = infer.ClassifyShape(unimodal)
	r.Synthetic["chunky-middle"] = infer.ClassifyShape(chunky)
	r.Synthetic["multi-maxima"] = infer.ClassifyShape(bimodal)

	p, _ := workload.Lookup("MSNFS")
	old, _ := GenerateOld(p, 0, cfg.Ops, cfg.Seed)
	c := infer.NewStreamClassifier()
	c.AddBatch(old.Requests)
	g := c.Grouping()
	for _, grp := range g.Select(true, trace.Read, 64) {
		r.WorkloadGroups = append(r.WorkloadGroups, Fig5Group{grp.Key, grp.N(), infer.ClassifyShape(grp.InttMicros)})
	}
	return r
}

// Render implements the textual figure.
func (r Fig5Result) Render(w io.Writer) {
	t := &report.Table{Title: "Fig 5: CDF shape taxonomy", Headers: []string{"population", "classified"}}
	for _, name := range []string{"global-maxima", "chunky-middle", "multi-maxima"} {
		t.AddRow(name, r.Synthetic[name].String())
	}
	t.Render(w)
	g := &report.Table{Title: "MSNFS sequential-read groups", Headers: []string{"sectors", "n", "shape"}}
	for _, row := range r.WorkloadGroups {
		g.AddRow(row.Key.Sectors, row.N, row.Shape.String())
	}
	g.Render(w)
}

// Fig7aWorkloads are the ten FIU workloads of Figure 7.
var Fig7aWorkloads = []string{
	"topgun", "casa", "webmail", "homes", "mail+online",
	"ikki", "webresearch", "madmax", "webusers", "online",
}

// Fig7aResult reproduces Figure 7a: the distribution of Tmovd — the
// positioning cost the disk pays for random accesses beyond the
// linear (sequential) service model — for each FIU workload replayed
// on the enterprise-disk model.
type Fig7aResult struct {
	Series []report.CDFSeries // Tmovd in µs per workload
	// RepMovd is the representative Tmovd (max of the CDF derivative)
	// per workload, the T^rep_movd of Section III.
	RepMovd map[string]time.Duration
}

// Fig7a replays the FIU workloads on the HDD and measures the gap
// between measured random-access device time and the linear model
// fitted on sequential accesses.
func Fig7a(cfg Config) Fig7aResult {
	cfg = cfg.withDefaults()
	out := Fig7aResult{RepMovd: map[string]time.Duration{}}
	fig7Traces(cfg, func(name string, tr *trace.Trace) {
		seq := tr.SeqFlags()
		// Fit the linear Tsdev model per op from sequential requests.
		fits := [...]stats.LinearFit{
			trace.Read:  fitLinear(tr, seq, trace.Read),
			trace.Write: fitLinear(tr, seq, trace.Write),
		}
		var movd []float64
		for i, r := range tr.Requests {
			if seq[i] {
				continue
			}
			linear := fits[r.Op].At(float64(r.Sectors))
			real := float64(r.Latency) / float64(time.Microsecond)
			if d := real - linear; d > 0 {
				movd = append(movd, d)
			}
		}
		out.Series = append(out.Series, report.NewCDFSeries(name, movd))
		if res, ok := infer.ExamineSteepness(movd); ok {
			out.RepMovd[name] = time.Duration(res.RiseMicros * float64(time.Microsecond))
		}
	})
	return out
}

// fig7Traces hands fn each Fig7aWorkloads family collected on the OLD
// system, HDD latencies kept: Figs 7a/7b measure the very latencies an
// FIU collection (workload.Collect) drops.
func fig7Traces(cfg Config, fn func(name string, tr *trace.Trace)) {
	for _, name := range Fig7aWorkloads {
		p, _ := workload.Lookup(name)
		app := workload.Generate(p, workload.GenOptions{Ops: cfg.Ops, Seed: 7 ^ cfg.Seed})
		fn(name, app.Execute(NewOldDevice()).Trace)
	}
}

// fitLinear least-squares fits latency = Tcdel + β·sectors over the
// sequential requests of one op type (µs units), neither term negative.
func fitLinear(t *trace.Trace, seq []bool, op trace.Op) stats.LinearFit {
	var xs, ys []float64
	for i, r := range t.Requests {
		if seq[i] && r.Op == op && r.Latency != 0 {
			xs = append(xs, float64(r.Sectors))
			ys = append(ys, float64(r.Latency)/float64(time.Microsecond))
		}
	}
	if len(xs) < 2 {
		return stats.LinearFit{}
	}
	fit, _ := stats.LeastSquares(xs, ys)
	return stats.LinearFit{Slope: max(fit.Slope, 0), Intercept: max(fit.Intercept, 0)}
}

// Render implements the textual figure.
func (r Fig7aResult) Render(w io.Writer) {
	report.RenderCDFs(w, "Fig 7a: CDF of Tmovd (FIU on enterprise disk)", r.Series...)
	t := &report.Table{Title: "Representative Tmovd", Headers: []string{"workload", "T_rep_movd"}}
	for _, name := range Fig7aWorkloads {
		t.AddRow(name, r.RepMovd[name])
	}
	t.Render(w)
}

// Fig7bResult reproduces Figure 7b: average channel delay per FIU
// workload for each access pattern.
type Fig7bResult struct {
	// Rows[workload][pattern] = average Tcdel; patterns are SeqW,
	// RandW, SeqR, RandR as in the figure's legend.
	Rows map[string]map[string]time.Duration
}

// Fig7bPatterns orders the figure's legend.
var Fig7bPatterns = []string{"SeqW", "RandW", "SeqR", "RandR"}

// Fig7b measures the modeled channel delay (command overhead plus
// interface transfer) per pattern. On the HDD model Tcdel depends only
// on size, so differences across patterns reflect each pattern's size
// mix — matching the paper's observation that Tcdel differs by op type
// but barely by access pattern (<8%).
func Fig7b(cfg Config) Fig7bResult {
	cfg = cfg.withDefaults()
	out := Fig7bResult{Rows: map[string]map[string]time.Duration{}}
	// The HDD profile's channel parameters.
	const cmdOverheadUS = 20.0
	const bytesPerSec = 300e6
	fig7Traces(cfg, func(name string, tr *trace.Trace) {
		seq := tr.SeqFlags()
		sums := map[string]float64{}
		counts := map[string]int{}
		for i, r := range tr.Requests {
			pat := patternOf(seq[i], r.Op)
			tcdelUS := cmdOverheadUS + float64(r.Bytes())/bytesPerSec*1e6
			sums[pat] += tcdelUS
			counts[pat]++
		}
		row := map[string]time.Duration{}
		for _, pat := range Fig7bPatterns {
			if counts[pat] > 0 {
				row[pat] = time.Duration(sums[pat] / float64(counts[pat]) * float64(time.Microsecond))
			}
		}
		out.Rows[name] = row
	})
	return out
}

func patternOf(seq bool, op trace.Op) string {
	switch {
	case seq && op == trace.Read:
		return "SeqR"
	case seq:
		return "SeqW"
	case op == trace.Read:
		return "RandR"
	default:
		return "RandW"
	}
}

// Render implements the textual figure.
func (r Fig7bResult) Render(w io.Writer) {
	t := &report.Table{Title: "Fig 7b: average Tcdel per access pattern", Headers: append([]string{"workload"}, Fig7bPatterns...)}
	for _, name := range Fig7aWorkloads {
		cells := []any{name}
		for _, pat := range Fig7bPatterns {
			cells = append(cells, r.Rows[name][pat])
		}
		t.AddRow(cells...)
	}
	t.Render(w)
}

// Fig9Result reproduces Figure 9: fit a step-like CDF with natural
// spline and PCHIP and quantify the overshoot/oscillation of each.
type Fig9Result struct {
	SplineOvershoot  float64 // max excursion outside [0,1]
	PchipOvershoot   float64
	SplineMonotone   bool
	PchipMonotone    bool
	SplineViolations int // count of decreasing sample steps
}

// Fig9 runs the interpolation comparison.
func Fig9(cfg Config) Fig9Result {
	// A CDF with a sharp step — the shape real Tintt CDFs take.
	xs := []float64{1, 10, 100, 110, 120, 1000, 10000}
	ys := []float64{0, 0.02, 0.05, 0.80, 0.85, 0.95, 1.0}
	sp, _ := interp.NaturalSpline(xs, ys)
	pc, _ := interp.PCHIP(xs, ys)
	var r Fig9Result
	// evalOvershoot reports f's largest excursion outside [0, 1], and
	// whether and how often it decreases, over 4000 steps.
	evalOvershoot := func(f interp.Interpolant) (float64, bool, int) {
		over := 0.0
		viol := 0
		prev := math.Inf(-1)
		for x := xs[0]; x <= xs[len(xs)-1]; x += (xs[len(xs)-1] - xs[0]) / 4000 {
			v := f.At(x)
			over = max(over, -v, v-1)
			if v < prev-1e-12 {
				viol++
			}
			prev = v
		}
		return over, viol == 0, viol
	}
	r.SplineOvershoot, r.SplineMonotone, r.SplineViolations = evalOvershoot(sp)
	r.PchipOvershoot, r.PchipMonotone, _ = evalOvershoot(pc)
	return r
}

// Render implements the textual figure.
func (r Fig9Result) Render(w io.Writer) {
	t := &report.Table{Title: "Fig 9: spline vs pchip on a step CDF", Headers: []string{"fit", "overshoot", "monotone", "violations"}}
	t.AddRow("spline", fmt.Sprintf("%.4f", r.SplineOvershoot), r.SplineMonotone, r.SplineViolations)
	t.AddRow("pchip", fmt.Sprintf("%.4f", r.PchipOvershoot), r.PchipMonotone, 0)
	t.Render(w)
}

// Table1Result reproduces Table I: per-family trace counts, average
// request sizes and measured-in-generation statistics.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one workload family's line.
type Table1Row struct {
	Name, Set     string
	NumTraces     int
	PaperAvgKB    float64
	MeasuredAvgKB float64
	PaperTotalGB  float64
	ReadFrac      float64
}

// Table1 regenerates a sample trace per family and compares measured
// average request size against the paper's Table I.
func Table1(cfg Config) Table1Result {
	cfg = cfg.withDefaults()
	var out Table1Result
	for _, p := range workload.Profiles() {
		// Not a corpus cell: the table reconstructs nothing.
		old, _ := GenerateOld(p, 0, cfg.Ops, cfg.Seed)
		sum := old.Summary()
		out.Rows = append(out.Rows, Table1Row{
			Name: p.Name, Set: p.Set, NumTraces: p.NumTraces,
			PaperAvgKB:    p.AvgKB,
			MeasuredAvgKB: sum.AvgRequestBytes() / 1024,
			PaperTotalGB:  p.TotalGB,
			ReadFrac:      sum.ReadFraction(),
		})
	}
	return out
}

// Render implements the textual table.
func (r Table1Result) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Table I: corpus characteristics (paper vs generated)",
		Headers: []string{"workload", "set", "#traces", "avgKB(paper)", "avgKB(gen)", "totalGB(paper)", "readFrac"},
	}
	total := 0
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Set, row.NumTraces,
			fmt.Sprintf("%.2f", row.PaperAvgKB),
			fmt.Sprintf("%.2f", row.MeasuredAvgKB),
			fmt.Sprintf("%.1f", row.PaperTotalGB),
			report.Percent(row.ReadFrac))
		total += row.NumTraces
	}
	t.Render(w)
	fmt.Fprintf(w, "total traces: %d\n", total)
}
