package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The harness resolves BENCHMARK.json, inputs.lock.json and ./cmd
// against the repository root, where `go run ./benchmark` starts it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, pct int }{
		{9, 50}, {24, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 95},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i) // 1..n, unsorted
		}
		v, pct := tail(samples)
		if pct != tc.pct {
			t.Errorf("n=%d: picked p%d, want p%d", tc.n, pct, tc.pct)
			continue
		}
		beyond := 0
		for _, s := range samples {
			if s > v {
				beyond++
			}
		}
		if pct != 50 && beyond < tailBeyond {
			t.Errorf("n=%d: p%d=%v has only %d samples beyond it", tc.n, pct, v, beyond)
		}
	}
}

func TestTemplateRenames(t *testing.T) {
	data := []byte("head " + namePlaceholder + " body body")
	tmpl, err := newTemplate(data)
	if err != nil {
		t.Fatal(err)
	}
	name := cycleName(3, 1, 42)
	if len(name) != len(namePlaceholder) {
		t.Fatalf("cycle name %q is not %d bytes", name, len(namePlaceholder))
	}
	got := tmpl.named(nil, name)
	if string(got) != "head "+name+" body body" {
		t.Fatalf("named: %q", got)
	}
	if !tmpl.matches(got, name) || tmpl.matches(got, cycleName(3, 1, 43)) || tmpl.matches(got[:len(got)-1], name) {
		t.Fatal("matches does not tell the renamed bytes from others")
	}
	got[len(got)-1] ^= 1
	if tmpl.matches(got, name) {
		t.Fatal("matches accepted a flipped body byte")
	}
	if _, err := newTemplate([]byte(namePlaceholder + namePlaceholder)); err == nil {
		t.Fatal("a template holding the name twice was accepted")
	}
}

func TestVerdict(t *testing.T) {
	rounds := func(v, lo, hi float64) metric { return metric{Value: v, Unit: "ms", Min: &lo, Max: &hi} }
	lower := manifestMetric{Name: "result_p50_ms", Better: "lower", Bound: 0.10}
	higher := manifestMetric{Name: "recon_kreq_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		d    manifestMetric
		a, b metric
		want string
	}{
		{"within bound", lower, rounds(100, 98, 102), rounds(105, 103, 107), "ok"},
		{"beyond bound", lower, rounds(100, 98, 102), rounds(115, 113, 117), "worse"},
		{"better", lower, rounds(100, 98, 102), rounds(80, 79, 81), "ok"},
		{"higher is better, dropped", higher, rounds(100, 98, 102), rounds(85, 84, 86), "worse"},
		{"wide rounds", lower, rounds(100, 90, 110), rounds(115, 113, 117), "unresolved"},
		{"wide rounds but every round better", lower, rounds(100, 90, 110), rounds(70, 60, 80), "ok"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSmoke runs the whole harness at smoke size — real daemon, real
// HTTP, one round of two cycles over 2k-request traces — and checks
// the contract between BENCHMARK.json and what the harness emits.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.rounds, cfg.warmup, cfg.cycles, cfg.requests, cfg.reps, cfg.indexEntries = 1, 1, 2, 2000, 2, 16
	cfg.workdir, cfg.log = t.TempDir(), io.Discard
	rep, err := run(cfg, workloads)
	runCleanups()
	if err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(cfg.workdir, "*-*"))
	for _, p := range left {
		if filepath.Ext(p) != ".json" {
			t.Errorf("run left %s behind", p)
		}
	}

	if len(man.Workloads) != len(rep.Workloads) {
		t.Fatalf("%s names %d workloads, the harness ran %d", manifestFile, len(man.Workloads), len(rep.Workloads))
	}
	byName := map[string]workloadResult{}
	for _, w := range rep.Workloads {
		if _, dup := byName[w.Name]; dup {
			t.Errorf("workload %s reported twice", w.Name)
		}
		byName[w.Name] = w
	}
	for _, mw := range man.Workloads {
		w, ok := byName[mw.Name]
		if !ok {
			t.Errorf("%s names workload %s, which did not run", manifestFile, mw.Name)
			continue
		}
		if w.Failed != 0 || w.Attempted != cfg.rounds*cfg.cycles {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, w.Attempted, w.Failed, w.Failures)
		}
		// Every named metric exactly once: in one of the two sets,
		// finite, with the manifest's unit.
		for _, set := range []struct {
			defs        []manifestMetric
			from, other metrics
		}{{man.EndToEnd, w.EndToEnd, w.PerLayer}, {man.PerLayer, w.PerLayer, w.EndToEnd}} {
			for _, d := range set.defs {
				v, ok := set.from[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.Name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, d.Name, v.Value)
				case v.Unit == "" || v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, %s says %q", w.Name, d.Name, v.Unit, manifestFile, d.Unit)
				}
				if _, twice := set.other[d.Name]; twice {
					t.Errorf("%s: metric %s emitted in both sets", w.Name, d.Name)
				}
			}
		}
		for _, trace := range []int{0, 1} {
			if _, err := resultLine(man, w, trace); err != nil {
				t.Errorf("%s: -trace %d summary: %v", w.Name, trace, err)
			}
		}

		// Bypassed layers report zero work.
		spec, _ := lookupWorkload(w.Name)
		wantEstimates := 0.0
		if spec.Profile == "webmail" {
			wantEstimates = 1
		}
		if got := w.PerLayer["infer.estimate_calls"].Value; got != wantEstimates {
			t.Errorf("%s: infer.estimate_calls = %v, want %v", w.Name, got, wantEstimates)
		}
		grew, result := w.PerLayer["corpus.data_bytes_per_cycle"].Value, w.PerLayer["trace.out_bytes"].Value
		if spec.Hot && grew > result/4 {
			t.Errorf("%s: data directory grew %v B per cycle; a hot cycle stores no %v B result", w.Name, grew, result)
		}
		if !spec.Hot && grew < result {
			t.Errorf("%s: data directory grew %v B per cycle, less than one %v B result", w.Name, grew, result)
		}

		checkSpans(t, filepath.Join(cfg.workdir, "spans-"+w.Name+".json"), w.Name)
	}
}

// checkSpans asserts a span file parses as Chrome trace events, every
// parent id resolves, and the two roots the README documents exist.
func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID       int    `json:"id"`
				Parent   int    `json:"parent"`
				Workload string `json:"workload"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	ids, roots := map[int]bool{}, map[string]int{}
	for _, e := range doc.TraceEvents {
		ids[e.Args.ID] = true
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args.Workload != workload {
			t.Errorf("%s: malformed event %+v", path, e)
		}
		if e.Args.Parent == 0 {
			roots[e.Name]++
		} else if !ids[e.Args.Parent] {
			t.Errorf("%s: span %d (%s) has unknown parent %d", path, e.Args.ID, e.Name, e.Args.Parent)
		}
	}
	if roots["cycle"] != 1 || roots["decomp"] != 1 {
		t.Errorf("%s: roots %v, want one cycle and one decomp", path, roots)
	}
}
