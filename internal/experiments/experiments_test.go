package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/verify"
	"repro/internal/workload"
)

// small keeps unit-test runtime low; the benches run larger scales.

var small = Config{Ops: 1500}

func TestFig1Shape(t *testing.T) {
	r := Fig1(small)
	// Acceleration must be overwhelmingly shorter than NEW (paper:
	// 98.6% of inter-arrivals).
	if r.AccelShorterFrac < 0.80 {
		t.Fatalf("Acceleration shorter-than-NEW fraction %.2f, want > 0.80", r.AccelShorterFrac)
	}
	// Revision loses the bulk of idle periods (paper: 69%).
	if r.RevisionIdleLossFrac < 0.4 {
		t.Fatalf("Revision idle loss %.2f, want > 0.4", r.RevisionIdleLossFrac)
	}
	// OLD medians must exceed NEW medians (slower device).
	oldMedian := r.Old.Values[3]
	newMedian := r.New.Values[3]
	if oldMedian <= newMedian {
		t.Fatalf("OLD median %v should exceed NEW median %v", oldMedian, newMedian)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 1") {
		t.Fatal("render missing title")
	}
}

func TestFig3Shape(t *testing.T) {
	r := Fig3(small)
	if len(r.Acceleration) != 5 || len(r.Revision) != 5 {
		t.Fatalf("rows: %d/%d", len(r.Acceleration), len(r.Revision))
	}
	for _, row := range r.Acceleration {
		total := row.Longer + row.Equal + row.Shorter
		if total < 0.999 || total > 1.001 {
			t.Fatalf("%s: breakdown sums to %v", row.Workload, total)
		}
		// Acceleration's dominant bucket is "shorter" (paper Fig 3a).
		if row.Shorter < row.Longer {
			t.Fatalf("%s: acceleration should skew shorter (%+v)", row.Workload, row)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 3a") || !strings.Contains(buf.String(), "wdev") {
		t.Fatal("render incomplete")
	}
}

func TestFig5Classification(t *testing.T) {
	r := Fig5(small)
	if r.Synthetic["global-maxima"] != infer.ShapeGlobalMaxima {
		t.Fatalf("unimodal classified %v", r.Synthetic["global-maxima"])
	}
	if r.Synthetic["chunky-middle"] != infer.ShapeChunkyMiddle {
		t.Fatalf("chunky classified %v", r.Synthetic["chunky-middle"])
	}
	if r.Synthetic["multi-maxima"] != infer.ShapeMultiMaxima {
		t.Fatalf("bimodal classified %v", r.Synthetic["multi-maxima"])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "taxonomy") {
		t.Fatal("render incomplete")
	}
}

func TestFig7aTmovdMagnitude(t *testing.T) {
	r := Fig7a(small)
	if len(r.Series) != 10 {
		t.Fatalf("series count %d", len(r.Series))
	}
	// Representative Tmovd on a 7200rpm disk must be in the
	// milliseconds (seek + rotation).
	for _, name := range Fig7aWorkloads {
		rep, ok := r.RepMovd[name]
		if !ok {
			continue
		}
		if rep < 500*time.Microsecond || rep > 50*time.Millisecond {
			t.Fatalf("%s: representative Tmovd %v outside disk regime", name, rep)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Tmovd") {
		t.Fatal("render incomplete")
	}
}

func TestFig7bTcdelSmall(t *testing.T) {
	r := Fig7b(small)
	for name, row := range r.Rows {
		for pat, d := range row {
			// Channel delays are tens of µs (paper Fig 7b: < 30 µs).
			if d < time.Microsecond || d > 500*time.Microsecond {
				t.Fatalf("%s/%s: Tcdel %v implausible", name, pat, d)
			}
		}
		// Sequential vs random Tcdel of the same op should be close
		// (paper: < 8% reads, < 6% writes — ours differ only via the
		// size mix, so allow 30%).
		if sr, rr := row["SeqR"], row["RandR"]; sr > 0 && rr > 0 {
			ratio := float64(sr) / float64(rr)
			if ratio < 0.7 || ratio > 1.3 {
				t.Fatalf("%s: SeqR/RandR Tcdel ratio %.2f", name, ratio)
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Tcdel") {
		t.Fatal("render incomplete")
	}
}

func TestFig9SplineVsPchip(t *testing.T) {
	r := Fig9(small)
	if r.PchipOvershoot > 1e-9 {
		t.Fatalf("PCHIP overshoot %v, want none", r.PchipOvershoot)
	}
	if !r.PchipMonotone {
		t.Fatal("PCHIP must stay monotone")
	}
	if r.SplineOvershoot <= 0 && r.SplineMonotone {
		t.Fatal("spline should overshoot or oscillate on step data (Fig 9)")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "pchip") {
		t.Fatal("render incomplete")
	}
}

func TestTable1Corpus(t *testing.T) {
	r := Table1(small)
	if len(r.Rows) != 31 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	total := 0
	for _, row := range r.Rows {
		total += row.NumTraces
		// Generated averages should land within 60% of Table I's
		// (power-of-two anchors quantize the mixture).
		lo, hi := row.PaperAvgKB*0.4, row.PaperAvgKB*1.7
		if row.MeasuredAvgKB < lo || row.MeasuredAvgKB > hi {
			t.Fatalf("%s: measured %0.2f KB vs paper %0.2f KB", row.Name, row.MeasuredAvgKB, row.PaperAvgKB)
		}
	}
	if total != 577 {
		t.Fatalf("corpus total %d, want 577", total)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "577") {
		t.Fatal("render incomplete")
	}
}

func TestFig10VerificationShape(t *testing.T) {
	r := Fig10(small)
	for _, g := range []VerifyGroupResult{r.Known, r.Unknown} {
		if len(g.PerPeriod) != len(verify.Periods) {
			t.Fatalf("%s: period count %d", g.Group, len(g.PerPeriod))
		}
	}
	// The recorded-latency group detects the bulk of idles at >= 1 ms.
	// Injections landing right after an asynchronous burst can be
	// swallowed by the predecessor's queue-inflated service time, so
	// detection tops out below 100% — the paper's own Detection(TP)
	// spans 82.2%–99.7%.
	for i := 1; i < len(verify.Periods); i++ {
		if det := r.Known.PerPeriod[i].DetectionTP(); det < 0.70 {
			t.Fatalf("known group detection at %v = %.2f", verify.Periods[i], det)
		}
		if lr := r.Known.PerPeriod[i].LenTPRatio; lr < 0.70 || lr > 1.30 {
			t.Fatalf("known group Len(TP) at %v = %.2f", verify.Periods[i], lr)
		}
	}
	// The inference group improves with period: 100 ms beats 100 µs.
	first := r.Unknown.PerPeriod[0].LenTPRatio
	last := r.Unknown.PerPeriod[len(verify.Periods)-1].LenTPRatio
	if last < 0.80 || last > 1.20 {
		t.Fatalf("unknown group Len(TP) at 100ms = %.3f", last)
	}
	// At 100µs the ratio may over- or under-shoot, but accuracy
	// |1-ratio| must not be better than at 100ms by a wide margin...
	// the robust check: the long-period estimate is closer to 1.
	if abs(1-last) > abs(1-first)+0.05 {
		t.Fatalf("verification should improve with period: %v vs %v", first, last)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Len(TP)") {
		t.Fatal("render incomplete")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig11FalsePositives(t *testing.T) {
	r := Fig11(small)
	// Recorded-latency decomposition on an idle-free base should
	// produce almost no FPs; inference some, but bounded.
	if r.UnknownMean > 50*time.Millisecond {
		t.Fatalf("unknown-group Len(FP) mean %v too large", r.UnknownMean)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Len(FP)") {
		t.Fatal("render incomplete")
	}
}

func TestFig12Panels(t *testing.T) {
	r, err := Fig12(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Unaware) != 4 || len(r.Aware) != 4 {
		t.Fatalf("panel sizes %d/%d", len(r.Unaware), len(r.Aware))
	}
	// Acceleration's median is far below Target's (100x shift).
	target, accel := r.Unaware[0], r.Unaware[1]
	if accel.Values[3] >= target.Values[3]/10 {
		t.Fatalf("acceleration median %v not ~100x below target %v", accel.Values[3], target.Values[3])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 12a") || !strings.Contains(buf.String(), "Fig 12b") {
		t.Fatal("render incomplete")
	}
}

func TestFig13MethodOrdering(t *testing.T) {
	r := corpusAt(t, Config{Ops: 800}).Fig13
	if len(r.Rows) != 31 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// Idle-less methods (Acceleration, Revision) must diverge from
	// TraceTracker far more than the idle-aware ones (paper: ~7 s vs
	// <= 1.3 ms).
	if r.Mean["Acceleration"] < 10*r.Mean["Dynamic"] {
		t.Fatalf("Acceleration gap %v should dwarf Dynamic %v",
			r.Mean["Acceleration"], r.Mean["Dynamic"])
	}
	if r.Mean["Revision"] < 10*r.Mean["Dynamic"] {
		t.Fatalf("Revision gap %v should dwarf Dynamic %v",
			r.Mean["Revision"], r.Mean["Dynamic"])
	}
	if r.Mean["Dynamic"] == 0 {
		t.Fatal("Dynamic gap should be nonzero (post-processing differs)")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "MEAN") {
		t.Fatal("render incomplete")
	}
}

func TestFig14TargetGap(t *testing.T) {
	r := corpusAt(t, Config{Ops: 800}).Fig14
	if len(r.Rows) != 31 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Max < row.Avg {
			t.Fatalf("%s: max %v below avg %v", row.Workload, row.Max, row.Avg)
		}
		// The reconstructed trace leans shorter: its median must not
		// exceed the target's (paper Fig 15 discussion).
		if row.MedianTT > row.MedianTarget {
			t.Fatalf("%s: TT median %v above target %v", row.Workload, row.MedianTT, row.MedianTarget)
		}
	}
	if r.AvgOverall <= 0 {
		t.Fatal("overall gap must be positive")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "overall average gap") {
		t.Fatal("render incomplete")
	}
}

func TestFig15Overlays(t *testing.T) {
	r, err := Fig15(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Fig15Workloads {
		med := r.Medians[name]
		if med[1] > med[0] {
			t.Fatalf("%s: TT median %v should not exceed target %v", name, med[1], med[0])
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "ikki") {
		t.Fatal("render incomplete")
	}
}

func TestFig16IdleAverages(t *testing.T) {
	r := corpusAt(t, Config{Ops: 800}).Fig16
	if len(r.Rows) != 31 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// FIU and MSRC idles dwarf MSPS (paper: 2.80 s / 2.25 s vs 0.27 s).
	if r.SetAvg["FIU"] <= r.SetAvg["MSPS"] {
		t.Fatalf("FIU avg idle %v should exceed MSPS %v", r.SetAvg["FIU"], r.SetAvg["MSPS"])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "per-set averages") {
		t.Fatal("render incomplete")
	}
}

func TestFig17Breakdown(t *testing.T) {
	r := corpusAt(t, Config{Ops: 800}).Fig17
	for _, row := range r.Rows {
		var fsum, psum float64
		for b := 0; b < 4; b++ {
			fsum += row.Freq[b]
			psum += row.Period[b]
		}
		if fsum < 0.999 || fsum > 1.001 {
			t.Fatalf("%s: freq sums to %v", row.Workload, fsum)
		}
		if psum < 0.999 || psum > 1.001 {
			t.Fatalf("%s: period sums to %v", row.Workload, psum)
		}
	}
	// MSPS requests see idles more often than FIU/MSRC (paper: 70% vs
	// 31%/26%).
	if r.SetIdleFreq["MSPS"] <= r.SetIdleFreq["FIU"] {
		t.Fatalf("MSPS idle freq %v should exceed FIU %v",
			r.SetIdleFreq["MSPS"], r.SetIdleFreq["FIU"])
	}
	// But FIU/MSRC idle *time* dominates their total period (paper:
	// ~99% vs 87%).
	if r.SetIdlePeriod["FIU"] <= r.SetIdlePeriod["MSPS"] {
		t.Fatalf("FIU idle period share %v should exceed MSPS %v",
			r.SetIdlePeriod["FIU"], r.SetIdlePeriod["MSPS"])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 17") {
		t.Fatal("render incomplete")
	}
}

func TestClaims(t *testing.T) {
	r := corpusAt(t, Config{Ops: 800}).Claims
	// Idle-bearing requests below ~50% corpus-wide (paper: < 39%).
	if r.IdleBearingFrac <= 0 || r.IdleBearingFrac > 0.6 {
		t.Fatalf("idle-bearing fraction %v", r.IdleBearingFrac)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "claims") && !strings.Contains(buf.String(), "claim") {
		t.Fatal("render incomplete")
	}
}

// TestPaperHeadlineValues pins the inference results themselves, not
// their shape: the generators are seeded (TestGenerateOldDeterministic),
// so these are constants of the tree, recorded at PR 18. A change to
// infer, core or the device models that moves one of them must change
// the constant here on purpose. The tolerance only absorbs
// fused-multiply-add differences between architectures.
func TestPaperHeadlineValues(t *testing.T) {
	near := func(what string, got, want float64) {
		t.Helper()
		if d := got - want; d > 1e-9*want || d < -1e-9*want {
			t.Errorf("%s = %.17g, recorded %.17g", what, got, want)
		}
	}
	type period struct{ detectionTP, lenTPRatio float64 }
	r := Fig10(small)
	for _, g := range []struct {
		got  VerifyGroupResult
		want [4]period // indexed like verify.Periods
	}{
		{r.Known, [4]period{
			{124.0 / 154, 0.9847166129032259},
			{151.0 / 183, 0.9974898807947021},
			{141.0 / 165, 0.978218979432624},
			{128.0 / 128, 0.951536266015625},
		}},
		{r.Unknown, [4]period{
			{101.0 / 154, 38.39102316831684},
			{95.0 / 183, 4.02373214736842},
			{165.0 / 165, 0.9648972303030305},
			{128.0 / 128, 1.0241496588281251},
		}},
	} {
		if len(g.got.PerPeriod) != len(g.want) {
			t.Fatalf("%s: %d periods, want %d", g.got.Group, len(g.got.PerPeriod), len(g.want))
		}
		for i, m := range g.got.PerPeriod {
			what := g.got.Group + " @" + verify.Periods[i].String()
			near(what+" Detection(TP)", m.DetectionTP(), g.want[i].detectionTP)
			near(what+" Len(TP) ratio", m.LenTPRatio, g.want[i].lenTPRatio)
		}
	}
	if got, want := Fig11(small).UnknownMean, 4870442*time.Nanosecond; got != want {
		t.Errorf("Fig 11 unknown-group mean Len(FP) = %v, recorded %v", got, want)
	}
	c := corpusAt(t, Config{Ops: 800}).Claims
	near("idle-bearing request fraction", c.IdleBearingFrac, 0.40419354838709676)
}

func TestGenerateOldDeterministic(t *testing.T) {
	const ops = 500
	for _, p := range append(workload.Profiles(), workload.Exchange()) {
		pA, truthA := GenerateOld(p, 0, ops, 0)
		pB, truthB := GenerateOld(p, 0, ops, 0)
		if pA.Len() != ops || pB.Len() != ops {
			t.Fatalf("%s: lengths %d, %d, want %d", p.Name, pA.Len(), pB.Len(), ops)
		}
		for i := range pA.Requests {
			if pA.Requests[i] != pB.Requests[i] {
				t.Fatalf("%s: regeneration not deterministic at %d", p.Name, i)
			}
		}
		if truthA.TotalThink() != truthB.TotalThink() {
			t.Fatalf("%s: ground truth not deterministic", p.Name)
		}
		// The corpus decides the collection: Set and TsdevKnown come
		// from the profile, and only an FIU trace loses its latencies.
		if pA.Set != p.Set || pA.TsdevKnown != p.TsdevKnown || pA.Workload != p.Name {
			t.Errorf("%s: trace set=%q tsdev_known=%v workload=%q", p.Name, pA.Set, pA.TsdevKnown, pA.Workload)
		}
		recorded := 0
		for _, r := range pA.Requests {
			if r.Latency != 0 {
				recorded++
			}
		}
		if p.TsdevKnown != (recorded > 0) {
			t.Errorf("%s (%s): %d requests carry a latency, tsdev_known=%v", p.Name, p.Set, recorded, p.TsdevKnown)
		}
		// Think is the ground truth whatever the collection dropped.
		app := workload.Generate(p, workload.GenOptions{Ops: ops, Seed: workload.TraceSeed(p.Name, 0)})
		for i, op := range app.Ops {
			if truthA.Think[i] != op.Think {
				t.Fatalf("%s: think[%d] = %v, generated %v", p.Name, i, truthA.Think[i], op.Think)
			}
		}
	}
}

// TestRenderDeterminism: identical configs must produce byte-identical
// reports — the property every "same seed, same figure" claim in the
// README rests on.
func TestRenderDeterminism(t *testing.T) {
	cfg := Config{Ops: 900}
	var a, b bytes.Buffer
	Fig1(cfg).Render(&a)
	Fig1(cfg).Render(&b)
	if a.String() != b.String() {
		t.Fatal("Fig1 render not deterministic")
	}
	a.Reset()
	b.Reset()
	r1, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1.Render(&a)
	r2.Render(&b)
	if a.String() != b.String() {
		t.Fatal("Fig12 render not deterministic")
	}
	a.Reset()
	b.Reset()
	FixedThSweep(cfg).Render(&a)
	FixedThSweep(cfg).Render(&b)
	if a.String() != b.String() {
		t.Fatal("FixedThSweep render not deterministic")
	}
}
