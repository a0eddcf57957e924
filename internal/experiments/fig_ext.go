package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// --- Extension 1: Fixed-th threshold sweep -------------------------
//
// The paper tunes Fixed-th's threshold by sweeping 10–100 ms on an
// HDD node and picking 10 ms. This experiment reruns that tuning on
// the simulated substrate, scoring each threshold by how close the
// reconstructed inter-arrival distribution lands to the ground-truth
// NEW-system trace (which the synthetic corpus provides exactly).

// SweepThresholds are the candidate Fixed-th values.
var SweepThresholds = []time.Duration{
	1 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
	20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
}

// SweepRow scores one threshold on one workload.
type SweepRow struct {
	Threshold time.Duration
	// AvgGap is the mean |ΔTintt| against the ground-truth NEW trace.
	AvgGap time.Duration
	// KS is the Kolmogorov–Smirnov distance between the Tintt
	// distributions.
	KS float64
	// IdleKept is the fraction of ground-truth think time retained.
	IdleKept float64
}

// FixedThSweepResult aggregates the sweep over a workload sample.
type FixedThSweepResult struct {
	Workloads []string
	// Rows[i][j]: workload i, threshold j.
	Rows [][]SweepRow
	// MeanKS[j] averages KS across workloads for threshold j.
	MeanKS []float64
}

// FixedThSweep runs the tuning on three representative families (one
// per corpus).
func FixedThSweep(cfg Config) FixedThSweepResult {
	cfg = cfg.withDefaults()
	out := FixedThSweepResult{Workloads: []string{"MSNFS", "ikki", "web"}}
	ksSums := make([]float64, len(SweepThresholds))
	for _, name := range out.Workloads {
		p, _ := workload.Lookup(name)
		old, newRes := executeBoth(p, cfg.Ops, 21^cfg.Seed)
		truthIdle := newRes.TotalThink()
		truth := newRes.Trace.InterArrivals()
		truthIA := sortedInterArrivals(truth)

		var rows []SweepRow
		for j, th := range SweepThresholds {
			rec := baseline.FixedTh(old, NewTarget(), th)
			recIA := rec.InterArrivals()
			avg, _ := core.InterArrivalGap(recIA, truth)
			ks := stats.KolmogorovSmirnovSorted(sortedInterArrivals(recIA), truthIA)
			rows = append(rows, SweepRow{
				Threshold: th,
				AvgGap:    avg,
				KS:        ks,
				IdleKept:  min(ratio(idleMassAbove(rec), truthIdle), 1),
			})
			ksSums[j] += ks
		}
		out.Rows = append(out.Rows, rows)
	}
	for j := range ksSums {
		ksSums[j] /= float64(len(out.Workloads))
	}
	out.MeanKS = ksSums
	return out
}

// Render implements the textual report.
func (r FixedThSweepResult) Render(w io.Writer) {
	for i, name := range r.Workloads {
		t := &report.Table{
			Title:   "Fixed-th threshold sweep: " + name,
			Headers: []string{"threshold", "avg |dTintt| vs NEW", "KS", "idle kept"},
		}
		for _, row := range r.Rows[i] {
			t.AddRow(report.FormatDuration(row.Threshold), row.AvgGap,
				fmt.Sprintf("%.3f", row.KS), report.Percent(row.IdleKept))
		}
		t.Render(w)
	}
	t := &report.Table{Title: "mean KS per threshold", Headers: []string{"threshold", "mean KS"}}
	for j, th := range SweepThresholds {
		t.AddRow(report.FormatDuration(th), fmt.Sprintf("%.3f", r.MeanKS[j]))
	}
	t.Render(w)
}

// --- Extension 2: fidelity against the truth -----------------------
//
// The paper scores methods against TraceTracker, and idle recovery
// only on idles it injected. The synthetic corpus knows the truth:
// every think time and issue mode, and the same application executed
// on the NEW system. Per Table I family, this experiment scores each
// reconstruction rung against that target execution.

// FidelityRungs are the reconstructions each family is scored on, in
// print order. oracle emulates the true think times and post-processes
// with the true issue modes; recorded and inferred are TraceTracker on
// the trace's latencies and on the fitted model; +true flags
// post-processes the inferred idles with the true issue modes; the
// baselines run on the Tsdev-unknown trace.
var FidelityRungs = []string{"oracle", "recorded", "inferred", "+true flags",
	"Dynamic", "Fixed-th", "Revision", "Acceleration"}

// FidelityRow is one family's cell.
type FidelityRow struct {
	Workload, Set string
	// TsdevKnown is false where the corpus records no latencies (FIU):
	// there the recorded rung is hypothetical, and the idle scores come
	// from the inferred rung.
	TsdevKnown bool
	// KS[j] and W1Micros[j] compare rung FidelityRungs[j]'s
	// inter-arrival distribution with the target execution's.
	KS, W1Micros []float64
	// Async scores the inferred rung's flags.
	Async AsyncScore
	// DetectFrac and SecuredFrac score the true think times
	// (verify.Evaluate): the share of idle instructions found, and
	// Σ min(estimated, truth) / Σ truth.
	DetectFrac, SecuredFrac float64
}

// FidelityResult holds every family's cell, in Table I order.
type FidelityResult struct{ Rows []FidelityRow }

// SetSummary returns, over one corpus's families, each rung's median
// KS and the mean secured fraction.
func (r FidelityResult) SetSummary(set string) (medianKS []float64, secured float64) {
	var sec []float64
	ks := make([][]float64, len(FidelityRungs))
	for _, row := range r.Rows {
		if row.Set == set {
			sec = append(sec, row.SecuredFrac)
			for j := range ks {
				ks[j] = append(ks[j], row.KS[j])
			}
		}
	}
	for j := range ks {
		medianKS = append(medianKS, stats.Median(ks[j]))
	}
	return medianKS, stats.Mean(sec)
}

// add scores every rung of a family's cell against its target
// execution.
func (r *FidelityResult) add(c *cell) {
	row := FidelityRow{Workload: c.p.Name, Set: c.p.Set, TsdevKnown: c.p.TsdevKnown}
	truthIA := sortedInterArrivals(c.truth)
	for _, name := range FidelityRungs {
		ia := sortedInterArrivals(c.rungs[name])
		row.KS = append(row.KS, stats.KolmogorovSmirnovSorted(ia, truthIA))
		row.W1Micros = append(row.W1Micros, stats.Wasserstein1Sorted(ia, truthIA))
	}
	row.Async.Add(c.flagged, c.async)
	// think[i] precedes instruction i: the slot the decomposition gives
	// the idle it finds before it.
	met := verify.Evaluate(c.think, c.rep.Idle)
	row.DetectFrac, row.SecuredFrac = met.DetectionTP(), met.LenTPSecured()
	r.Rows = append(r.Rows, row)
}

// AsyncScore tallies async flags against the true issue modes: of N
// requests, True are async, Flagged are flagged and Hits are both.
type AsyncScore struct{ N, True, Flagged, Hits int }

// Add scores flagged[i] against the true issue mode async[i] into s,
// so that one score can pool a corpus.
func (s *AsyncScore) Add(flagged, async []bool) {
	s.N += len(async)
	for i, a := range async {
		if a {
			s.True++
		}
		if flagged[i] {
			s.Flagged++
			if a {
				s.Hits++
			}
		}
	}
}

func (s AsyncScore) TrueFrac() float64    { return ratio(s.True, s.N) }
func (s AsyncScore) FlaggedFrac() float64 { return ratio(s.Flagged, s.N) }
func (s AsyncScore) Precision() float64   { return ratio(s.Hits, s.Flagged) }
func (s AsyncScore) Recall() float64      { return ratio(s.Hits, s.True) }

// Render implements the textual report.
func (r FidelityResult) Render(w io.Writer) {
	rungTable := func(title string, cell func(row FidelityRow, j int) string) {
		t := &report.Table{Title: title, Headers: append([]string{"workload", "set"}, FidelityRungs...)}
		for _, row := range r.Rows {
			cells := []any{row.Workload, row.Set}
			for j, rung := range FidelityRungs {
				if c := cell(row, j); rung == "recorded" && !row.TsdevKnown {
					cells = append(cells, "("+c+")")
				} else {
					cells = append(cells, c)
				}
			}
			t.AddRow(cells...)
		}
		t.Render(w)
	}
	rungTable("KS vs the target execution (all 31 families)", func(row FidelityRow, j int) string {
		return fmt.Sprintf("%.3f", row.KS[j])
	})
	rungTable("W1 vs the target execution", func(row FidelityRow, j int) string {
		return report.FormatDuration(time.Duration(row.W1Micros[j] * float64(time.Microsecond)))
	})
	fmt.Fprintln(w, "(recorded): hypothetical, replaying latencies an FIU collection drops.")
	fmt.Fprintln(w, "Idle recovery scores the recorded rung, and the inferred one on FIU.")
	t := &report.Table{
		Title:   "inferred issue modes and natural-idle recovery vs ground truth",
		Headers: []string{"workload", "set", "async", "flagged", "precision", "recall", "detected", "secured"},
	}
	for _, row := range r.Rows {
		a := row.Async
		t.AddRow(row.Workload, row.Set, report.Percent(a.TrueFrac()), report.Percent(a.FlaggedFrac()),
			fmt.Sprintf("%.2f", a.Precision()), fmt.Sprintf("%.2f", a.Recall()),
			report.Percent(row.DetectFrac), report.Percent(row.SecuredFrac))
	}
	t.Render(w)
	s := &report.Table{
		Title:   "per-set median KS and mean secured idle",
		Headers: append(append([]string{"set"}, FidelityRungs...), "secured"),
	}
	for _, set := range corpusSets {
		medianKS, secured := r.SetSummary(set)
		cells := []any{set}
		for _, ks := range medianKS {
			cells = append(cells, fmt.Sprintf("%.3f", ks))
		}
		s.AddRow(append(cells, report.Percent(secured))...)
	}
	s.Render(w)
}

// sortedInterArrivals returns inter-arrival times ia in µs and in
// increasing order, what the sorted KS and W1 read: each sample is
// sorted once however many others it is scored against.
func sortedInterArrivals(ia []time.Duration) []float64 {
	us := trace.Micros(ia)
	stats.SortFloat64s(us, nil)
	return us
}
