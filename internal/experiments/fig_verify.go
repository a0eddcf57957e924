package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// VerifyGroupResult aggregates one trace group's verification metrics
// across the injected periods.
type VerifyGroupResult struct {
	Group string // "Tsdev-known" or "Tsdev-unknown"
	// PerPeriod[i] corresponds to verify.Periods[i].
	PerPeriod []verify.Metrics
}

// Fig10Result reproduces Figure 10 (Len(TP) per injected period per
// group) and carries everything Figure 11 needs too.
type Fig10Result struct {
	Known, Unknown VerifyGroupResult
}

// verifyBase collects a no-natural-idle trace of a family: think
// times are disabled so every idle the inference reports at a
// non-injected instruction is a genuine false positive. The family's
// corpus decides whether completion timestamps are kept
// (workload.Collect).
func verifyBase(family string, ops int, seed int64) *trace.Trace {
	p, _ := workload.Lookup(family)
	p.IdleFreq = 0
	return workload.Collect(p, workload.GenOptions{Ops: ops, Seed: seed}, NewOldDevice()).Trace
}

// Fig10 runs the injection sweep for both groups: the Tsdev-known
// group uses a CFS (MSPS-style) base whose recorded latencies drive
// decomposition directly; the Tsdev-unknown group uses an ikki
// (FIU-style) base that exercises the full inference model.
func Fig10(cfg Config) Fig10Result {
	cfg = cfg.withDefaults()
	known := verifyBase("CFS", cfg.Ops, 10^cfg.Seed)
	unknown := verifyBase("ikki", cfg.Ops, 11^cfg.Seed)

	out := Fig10Result{
		Known:   VerifyGroupResult{Group: "Tsdev-known"},
		Unknown: VerifyGroupResult{Group: "Tsdev-unknown"},
	}
	for pi, period := range verify.Periods {
		spec := verify.InjectionSpec{Period: period, Frac: 0.10, Seed: int64(100 + pi)}
		for _, g := range []struct {
			base *trace.Trace
			into *VerifyGroupResult
		}{{known, &out.Known}, {unknown, &out.Unknown}} {
			injected, truth := verify.Inject(g.base, spec)
			var est []time.Duration
			if m, _, err := core.PrepareModel(injected, core.Options{}); err == nil {
				est, _ = infer.Decompose(m, injected)
			} else {
				est = make([]time.Duration, injected.Len()) // a failed fit recovers no idle
			}
			g.into.PerPeriod = append(g.into.PerPeriod, verify.Evaluate(truth, est))
		}
	}
	return out
}

// Render implements the textual figure.
func (r Fig10Result) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Fig 10: Len(TP) and detection per injected idle period",
		Headers: []string{"group", "period", "Len(TP) secured", "Len(TP) ratio", "Detect(TP)", "Detect(FP)"},
	}
	for _, g := range []VerifyGroupResult{r.Known, r.Unknown} {
		for i, m := range g.PerPeriod {
			t.AddRow(g.Group, report.FormatDuration(verify.Periods[i]),
				report.Percent(m.LenTPSecured()),
				report.Percent(m.LenTPRatio),
				report.Percent(m.DetectionTP()),
				report.Percent(m.DetectionFP()))
		}
	}
	t.Render(w)
}

// Fig11Result reproduces Figure 11: the distribution of Len(FP) — the
// idle lengths the model hallucinates at non-injected instructions.
type Fig11Result struct {
	KnownFP, UnknownFP     report.CDFSeries
	KnownMean, UnknownMean time.Duration
}

// Fig11 gathers false-positive idle lengths across the same sweep as
// Fig10.
func Fig11(cfg Config) Fig11Result {
	res := Fig10(cfg)
	collect := func(g VerifyGroupResult) ([]float64, time.Duration) {
		var all []float64
		for _, m := range g.PerPeriod {
			all = append(all, m.LenFP...)
		}
		return all, time.Duration(stats.Mean(all) * float64(time.Microsecond))
	}
	kfp, kmean := collect(res.Known)
	ufp, umean := collect(res.Unknown)
	return Fig11Result{
		KnownFP:     report.NewCDFSeries("Tsdev-known", kfp),
		UnknownFP:   report.NewCDFSeries("Tsdev-unknown", ufp),
		KnownMean:   kmean,
		UnknownMean: umean,
	}
}

// Render implements the textual figure.
func (r Fig11Result) Render(w io.Writer) {
	report.RenderCDFs(w, "Fig 11: CDF of Len(FP)", r.KnownFP, r.UnknownFP)
	fmt.Fprintf(w, "mean Len(FP): known=%s unknown=%s\n",
		report.FormatDuration(r.KnownMean), report.FormatDuration(r.UnknownMean))
}
