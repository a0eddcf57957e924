package experiments

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/workload"
)

func TestFixedThSweepShape(t *testing.T) {
	r := FixedThSweep(small)
	if len(r.Rows) != 3 || len(r.MeanKS) != len(SweepThresholds) {
		t.Fatalf("shape: %d rows, %d means", len(r.Rows), len(r.MeanKS))
	}
	// The paper tuned to 10 ms from a 10-100 ms sweep; our substrate
	// must agree that mid-range thresholds beat the 100 ms extreme.
	last := r.MeanKS[len(r.MeanKS)-1]
	best := r.MeanKS[0]
	bestIdx := 0
	for i, ks := range r.MeanKS {
		if ks < best {
			best, bestIdx = ks, i
		}
	}
	if SweepThresholds[bestIdx] > 50*1e6 { // > 50ms in ns
		t.Fatalf("best threshold %v implausibly large", SweepThresholds[bestIdx])
	}
	if best >= last {
		t.Fatalf("tuned threshold (KS %.3f) should beat 100ms (KS %.3f)", best, last)
	}
	// Idle retention decreases with threshold (larger thresholds
	// swallow more genuine idle).
	for i := range r.Rows {
		first := r.Rows[i][0].IdleKept
		end := r.Rows[i][len(r.Rows[i])-1].IdleKept
		if end > first+1e-9 {
			t.Fatalf("%s: idle kept should not grow with threshold", r.Workloads[i])
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "mean KS per threshold") {
		t.Fatal("render incomplete")
	}
}

// fidelityConfigs are the cells the ext-fidelity invariants hold at:
// 800, 1500 and 4000 requests under seeds 0 and 1 (-short: 1500,
// seed 0).
func fidelityConfigs() []Config {
	if testing.Short() {
		return []Config{small}
	}
	var cfgs []Config
	for _, seed := range []int64{0, 1} {
		for _, ops := range []int{800, 1500, 4000} {
			cfgs = append(cfgs, Config{Ops: ops, Seed: seed})
		}
	}
	return cfgs
}

// fidelityRuns memoises Fidelity per Config, so the two tests below
// share one sweep.
var fidelityRuns = map[Config]FidelityResult{}

// forEachFidelity runs check on ext-fidelity's result at every
// fidelityConfigs cell, one subtest each.
func forEachFidelity(t *testing.T, check func(*testing.T, FidelityResult)) {
	for _, cfg := range fidelityConfigs() {
		t.Run(fmt.Sprintf("ops%d/seed%d", cfg.Ops, cfg.Seed), func(t *testing.T) {
			r, ok := fidelityRuns[cfg]
			if !ok {
				var err error
				if r, err = Fidelity(cfg); err != nil {
					t.Fatal(err)
				}
				fidelityRuns[cfg] = r
			}
			if len(r.Rows) != 31 {
				t.Fatalf("rows: %d", len(r.Rows))
			}
			check(t, r)
		})
	}
}

// TestSimilarityOrdering asserts, by name, the KS and W1 orderings of
// ext-fidelity's rungs. It asserts nothing about the inferred rung's
// KS against the baselines, and no per-family Revision against
// Fixed-th, which ties on some families.
func TestSimilarityOrdering(t *testing.T) {
	rung := func(name string) int { return slices.Index(FidelityRungs, name) }
	oracle, recorded, inferred := rung("oracle"), rung("recorded"), rung("inferred")
	dynamic, fixed, revision, accel := rung("Dynamic"), rung("Fixed-th"), rung("Revision"), rung("Acceleration")
	forEachFidelity(t, func(t *testing.T, r FidelityResult) {
		for _, row := range r.Rows {
			if len(row.KS) != len(FidelityRungs) || len(row.W1Micros) != len(FidelityRungs) {
				t.Fatalf("%s: %d KS and %d W1 scores", row.Workload, len(row.KS), len(row.W1Micros))
			}
			for j, ks := range row.KS {
				if ks < 0 || ks > 1 {
					t.Fatalf("%s/%s: KS %v out of range", row.Workload, FidelityRungs[j], ks)
				}
			}
			// The true think times and issue modes rebuild the target
			// execution, up to what a synchronous emulation loop cannot
			// reproduce.
			if row.KS[oracle] > 0.02 {
				t.Errorf("%s: oracle KS %.3f, want <= 0.02", row.Workload, row.KS[oracle])
			}
			if row.TsdevKnown && row.KS[recorded] >= row.KS[fixed] {
				t.Errorf("%s: recorded KS %.3f should beat Fixed-th %.3f", row.Workload, row.KS[recorded], row.KS[fixed])
			}
			// The idle-destroying methods displace orders of magnitude
			// more probability mass than the idle-aware ones.
			for _, bad := range []int{accel, revision} {
				for _, good := range []int{dynamic, inferred} {
					if row.W1Micros[bad] < 10*row.W1Micros[good] {
						t.Errorf("%s: W1(%s)=%.0fus should dwarf W1(%s)=%.0fus", row.Workload,
							FidelityRungs[bad], row.W1Micros[bad], FidelityRungs[good], row.W1Micros[good])
					}
				}
			}
		}
		for _, set := range corpusSets {
			med, _ := r.SetSummary(set)
			for _, bad := range []int{accel, revision} {
				for _, good := range []int{fixed, recorded} {
					if med[bad] <= med[good] {
						t.Errorf("%s: median KS of %s %.3f should exceed %s %.3f",
							set, FidelityRungs[bad], med[bad], FidelityRungs[good], med[good])
					}
				}
			}
		}
	})
}

// TestGroundTruthRecovery asserts ext-fidelity's detected and secured
// idle against the truth.
func TestGroundTruthRecovery(t *testing.T) {
	forEachFidelity(t, func(t *testing.T, r FidelityResult) {
		// The paper's headline: ~99% of delays detected, ~96% of
		// periods secured, on average. Here on natural idle, and
		// highest where the corpus records its latencies.
		for set, floor := range map[string]float64{"MSPS": 0.85, "MSRC": 0.85, "FIU": 0.60} {
			if _, secured := r.SetSummary(set); secured < floor {
				t.Errorf("%s secured %.2f, want >= %.2f", set, secured, floor)
			}
		}
		var buf bytes.Buffer
		r.Render(&buf)
		if !strings.Contains(buf.String(), "per-set median KS and mean secured idle") {
			t.Fatal("render incomplete")
		}
	})
}

// TestFig13OrderingRobustToSeed reruns the headline method ordering
// under different seeds: the conclusion must not be a seed artifact.
func TestFig13OrderingRobustToSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []int64{0, 1, 2} {
		r, err := Fig13(Config{Ops: 600, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Mean["Acceleration"] < 10*r.Mean["Dynamic"] ||
			r.Mean["Revision"] < 10*r.Mean["Dynamic"] {
			t.Fatalf("seed %d: idle-less methods no longer dominate: %v", seed, r.Mean)
		}
		if r.Mean["Fixed-th"] <= r.Mean["Dynamic"] {
			t.Fatalf("seed %d: Fixed-th should exceed Dynamic: %v", seed, r.Mean)
		}
	}
}

// TestFitVsTruth scores the Section III fit against the generator's
// truth at test speed: trace 0 of every family at 4k and 40k requests,
// seed 0, fitted with TsdevKnown cleared and decomposed, with no
// emulation. Per corpus it pools the async flags, scored by AsyncScore
// as ext-fidelity scores them, and the detected think mass against the
// true one.
//
// The bounds are the values this fit reads today, with a margin of 0.02
// on each fraction and 0.005 on the think-mass ratio, each one-sided
// toward worse: the flagged fraction may not move further from the
// true one, precision and recall may not fall, and the detected mass
// may not move further from the true mass. A fit that does better
// passes; the change that earns it tightens the table.
func TestFitVsTruth(t *testing.T) {
	const fracMargin, massMargin = 0.02, 0.005
	type key struct {
		set string
		ops int
	}
	today := map[key]struct{ flagged, precision, recall, mass float64 }{
		{"MSPS", 4000}:  {0.331, 0.393, 0.568, 1.0105},
		{"FIU", 4000}:   {0.417, 0.415, 0.783, 1.0012},
		{"MSRC", 4000}:  {0.488, 0.443, 0.779, 1.0001},
		{"MSPS", 40000}: {0.305, 0.404, 0.550, 1.0089},
		{"FIU", 40000}:  {0.441, 0.380, 0.758, 1.0009},
		{"MSRC", 40000}: {0.488, 0.466, 0.808, 1.0001},
	}
	for _, ops := range []int{4000, 40000} {
		flags := map[string]*AsyncScore{}
		detected, think := map[string]time.Duration{}, map[string]time.Duration{}
		for _, p := range workload.Profiles() {
			old, truth := GenerateOld(p, 0, ops, 0)
			old.TsdevKnown = false
			m, err := infer.Estimate(old, infer.EstimateOptions{})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			idle, async := infer.Decompose(m, old)
			if flags[p.Set] == nil {
				flags[p.Set] = &AsyncScore{}
			}
			flags[p.Set].Add(async, old.Requests)
			for i := range idle {
				detected[p.Set] += idle[i]
				think[p.Set] += truth.Think[i]
			}
		}
		for _, set := range corpusSets {
			s, want := flags[set], today[key{set, ops}]
			mass := float64(detected[set]) / float64(think[set])
			t.Logf("%s %dk: async %.3f, flagged %.3f, precision %.3f, recall %.3f; think mass %.4f of the truth",
				set, ops/1000, s.TrueFrac(), s.FlaggedFrac(), s.Precision(), s.Recall(), mass)
			if gap := math.Abs(s.FlaggedFrac() - s.TrueFrac()); gap > math.Abs(want.flagged-s.TrueFrac())+fracMargin {
				t.Errorf("%s %dk: flagged %.3f against a true %.3f, was %.3f", set, ops/1000, s.FlaggedFrac(), s.TrueFrac(), want.flagged)
			}
			if s.Precision() < want.precision-fracMargin {
				t.Errorf("%s %dk: precision %.3f, was %.3f", set, ops/1000, s.Precision(), want.precision)
			}
			if s.Recall() < want.recall-fracMargin {
				t.Errorf("%s %dk: recall %.3f, was %.3f", set, ops/1000, s.Recall(), want.recall)
			}
			if math.Abs(mass-1) > math.Abs(want.mass-1)+massMargin {
				t.Errorf("%s %dk: think mass %.4f of the truth, was %.4f", set, ops/1000, mass, want.mass)
			}
		}
	}
}
