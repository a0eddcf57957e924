// Package main's bench_test.go is the benchmark harness of deliverable
// (d): one testing.B benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. The six experiments that fold over the corpus sweep share
// one, BenchmarkCorpus, since they share the sweep. Each bench
// regenerates its experiment from scratch per iteration, so -benchmem
// also characterizes the pipeline's allocation behaviour; the b.N==1
// runs that `go test -bench=.` performs are the cheap way to execute
// the whole evaluation suite.
//
// The printed rows/series themselves come from `go run
// ./cmd/experiments all`; these benches assert the same key shape
// properties the unit tests check, at benchmark scale.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	corePkg "repro/internal/core"
	"repro/internal/device"
	enginePkg "repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/infer"
	tracePkg "repro/internal/trace"
	"repro/internal/workload"
)

// benchCfg is larger than the unit-test scale but still finishes each
// iteration in well under a second.
var benchCfg = experiments.Config{Ops: 4000}

func BenchmarkFig01InterArrivalCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchCfg)
		if r.AccelShorterFrac < 0.5 {
			b.Fatalf("acceleration shorter frac %v", r.AccelShorterFrac)
		}
	}
}

func BenchmarkFig03Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchCfg)
		if len(r.Acceleration) != 5 {
			b.Fatal("rows missing")
		}
	}
}

func BenchmarkFig05Shapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchCfg)
		if len(r.Synthetic) != 3 {
			b.Fatal("classification missing")
		}
	}
}

func BenchmarkFig07aTmovd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7a(benchCfg)
		if len(r.Series) != 10 {
			b.Fatal("series missing")
		}
	}
}

func BenchmarkFig07bTcdel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7b(benchCfg)
		if len(r.Rows) != 10 {
			b.Fatal("rows missing")
		}
	}
}

func BenchmarkFig09Interp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchCfg)
		if r.PchipOvershoot > 1e-9 {
			b.Fatal("pchip overshoot")
		}
	}
}

func BenchmarkTable1Corpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(benchCfg)
		if len(r.Rows) != 31 {
			b.Fatal("rows missing")
		}
	}
}

func BenchmarkFig10LenTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(benchCfg)
		if len(r.Known.PerPeriod) != 4 {
			b.Fatal("periods missing")
		}
	}
}

func BenchmarkFig11LenFP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(benchCfg)
		_ = r.KnownMean
	}
}

func BenchmarkFig12MSNFSCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpus regenerates the six experiments that read the corpus
// sweep, Figs 13, 14, 16 and 17, the introduction claims and
// ext-fidelity: one cell per Table I family, folded into all six.
func BenchmarkCorpus(b *testing.B) {
	cfg := experiments.Config{Ops: 1500} // 31 families x every reconstruction
	for i := 0; i < b.N; i++ {
		r, err := experiments.Corpus(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Fig13.Mean["Acceleration"] == 0 {
			b.Fatal("zero gap")
		}
		if r.Fig16.SetAvg["FIU"] <= r.Fig16.SetAvg["MSPS"] {
			b.Fatal("idle ordering violated")
		}
	}
}

func BenchmarkFig15CDFOverlay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationPostProcess is the Dynamic-vs-TraceTracker ablation
// at the whole-pipeline level: post-processing on and off.
func BenchmarkAblationPostProcess(b *testing.B) {
	// Captured implicitly by Fig12/Fig13; here measured as raw
	// pipeline cost difference.
	p, _ := workload.Lookup("Exchange")
	old, _ := experiments.GenerateOld(p, 0, 4000, 0)
	old.TsdevKnown = false
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runPipeline(old, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tracetracker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runPipeline(old, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discard sinks render output in render benches.
var discard io.Writer = io.Discard

// BenchmarkRenderAll measures the reporting layer itself.
func BenchmarkRenderAll(b *testing.B) {
	r := experiments.Fig1(experiments.Config{Ops: 1000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render(discard)
	}
}

// --- Engine (internal/engine) ---

var (
	engineBenchOnce sync.Once
	engineBenchOld  *tracePkg.Trace
)

// engineBenchTrace lazily synthesizes the 1M-request corpus the engine
// throughput benches share: an MSNFS-profile application executed on
// the OLD device, so per-request latencies are recorded (Tsdev-known)
// and the parallel fraction — decomposition + emulation — dominates,
// as it does on the real event-traced corpora.
func engineBenchTrace(b *testing.B) *tracePkg.Trace {
	b.Helper()
	engineBenchOnce.Do(func() {
		p, ok := workload.Lookup("MSNFS")
		if !ok {
			panic("MSNFS profile missing")
		}
		app := workload.Generate(p, workload.GenOptions{
			Ops:  1_000_000,
			Seed: workload.TraceSeed("engine-bench", 0),
		})
		res := app.Execute(device.NewHDD(device.DefaultHDDConfig()))
		engineBenchOld = res.Trace
		engineBenchOld.Name = "engine-bench-1m"
	})
	return engineBenchOld
}

// BenchmarkEngineReconstruct measures the product path — a job from a
// bin file through engine.RunJobTo to a bin sink — over the 1M-request
// trace at 1, 4 and GOMAXPROCS workers. SetBytes is the input file's
// size, so the MB/s column is on-disk trace processed.
func BenchmarkEngineReconstruct(b *testing.B) {
	old := engineBenchTrace(b)
	path := filepath.Join(b.TempDir(), old.Name+".bin")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := tracePkg.WriteBinary(f, old); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, w := range workerSet {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			spec := enginePkg.JobSpec{In: path, InFormat: "bin", OutFormat: "bin"}
			b.SetBytes(st.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := enginePkg.RunJobTo(enginePkg.Config{Workers: w}, spec, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Requests != int64(old.Len()) {
					b.Fatalf("lost requests: %d != %d", rep.Requests, old.Len())
				}
			}
		})
	}
}

// runPipeline runs the reconstruction with or without post-processing.
func runPipeline(old *tracePkg.Trace, skipPost bool) (*tracePkg.Trace, error) {
	out, _, err := corePkg.Reconstruct(old, experiments.NewTarget(), corePkg.Options{SkipPostProcess: skipPost})
	return out, err
}

// BenchmarkExtFixedThSweep regenerates the Fixed-th tuning sweep
// (extension of the paper's 10-100ms threshold selection).
func BenchmarkExtFixedThSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FixedThSweep(benchCfg)
		if len(r.MeanKS) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkExtFTLImpact regenerates the downstream FTL study (the
// paper's background-budget implication, closed-loop).
func BenchmarkExtFTLImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.FTLImpact(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 {
			b.Fatal("rows missing")
		}
	}
}

// BenchmarkExtCacheImpact regenerates the above/below-page-cache
// collection comparison.
func BenchmarkExtCacheImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CacheImpact(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineStages isolates the cost of each reconstruction
// stage on one MSNFS-sized trace: classification, Algorithm-1 model
// fit, decomposition, emulation, post-processing (via full pipeline).
func BenchmarkPipelineStages(b *testing.B) {
	p, _ := workload.Lookup("MSNFS")
	old, _ := experiments.GenerateOld(p, 0, 8000, 0)
	old.TsdevKnown = false
	b.Run("classify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := infer.NewStreamClassifier()
			c.AddBatch(old.Requests)
			if g := c.Grouping(); len(g.Groups) == 0 {
				b.Fatal("no groups")
			}
		}
	})
	b.Run("estimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := infer.Estimate(old, infer.EstimateOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	m, err := infer.Estimate(old, infer.EstimateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decompose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idle, _ := infer.Decompose(m, old)
			if len(idle) != old.Len() {
				b.Fatal("bad decomposition")
			}
		}
	})
	b.Run("full-pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runPipeline(old, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
