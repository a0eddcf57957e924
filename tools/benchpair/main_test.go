package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stubBenchmark is a tree's ./benchmark for the tests. It appends its
// side and arguments to ../runs.log, counts its own earlier runs there,
// and then, per stub.json in its tree: hangs on run hang_on, exits 1
// without a summary on run crash_on, reports a failed cycle on run
// fail_on, and otherwise prints a report line and then the one-line
// summary with run i's value of every metric.
const stubBenchmark = `package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

type stub struct {
	Side   string               ` + "`json:\"side\"`" + `
	HangOn int                  ` + "`json:\"hang_on\"`" + `
	CrashOn int                 ` + "`json:\"crash_on\"`" + `
	FailOn int                  ` + "`json:\"fail_on\"`" + `
	Values map[string][]float64 ` + "`json:\"values\"`" + `
}

func main() {
	var s stub
	data, err := os.ReadFile("stub.json")
	if err != nil || json.Unmarshal(data, &s) != nil {
		os.Exit(3)
	}
	log, _ := os.ReadFile("../runs.log")
	n := strings.Count(string(log), s.Side+" ")
	f, _ := os.OpenFile("../runs.log", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	fmt.Fprintln(f, s.Side, strings.Join(os.Args[1:], " "))
	f.Close()
	switch n + 1 {
	case s.HangOn:
		time.Sleep(time.Minute)
	case s.CrashOn:
		fmt.Fprintln(os.Stderr, "stub: crashed")
		os.Exit(1)
	}
	failed := 0
	if n+1 == s.FailOn {
		failed = 1
	}
	out := map[string]any{"correct": failed == 0, "attempted": 10, "failed": failed}
	metrics := map[string]any{}
	for name, vs := range s.Values {
		metrics[name] = map[string]any{"value": vs[n%len(vs)], "unit": "x"}
	}
	out["metrics"] = metrics
	line, _ := json.Marshal(out)
	fmt.Println("report: a line the summary follows")
	fmt.Println(string(line))
	if failed > 0 {
		os.Exit(1)
	}
}
`

// stubManifest judges four metrics of the stubs.
const stubManifest = `{"end_to_end": [
	{"name": "up", "unit": "x", "better": "higher", "bound": 0.25},
	{"name": "down", "unit": "x", "better": "lower", "bound": 0.25},
	{"name": "flat", "unit": "x", "better": "lower", "bound": 0.25},
	{"name": "wide", "unit": "x", "better": "lower", "bound": 0.25}
], "per_layer": [{"name": "up", "unit": "x", "better": "higher"}]}`

// stubTree writes a tree under root/name whose ./benchmark is the stub
// with the given stub.json.
func stubTree(t *testing.T, root, name string, stub map[string]any) string {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(filepath.Join(dir, "benchmark"), 0o755); err != nil {
		t.Fatal(err)
	}
	stub["side"] = name
	cfg, err := json.Marshal(stub)
	if err != nil {
		t.Fatal(err)
	}
	for file, content := range map[string]string{
		"go.mod":            "module stub\n\ngo 1.23\n",
		"benchmark/main.go": stubBenchmark,
		"BENCHMARK.json":    stubManifest,
		"stub.json":         string(cfg),
	} {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runLog returns the sides of the stub runs in the order they ran, and
// the arguments of the first.
func runLog(t *testing.T, root string) (sides []string, firstArgs string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "runs.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		side, args, _ := strings.Cut(line, " ")
		sides = append(sides, side)
		if i == 0 {
			firstArgs = args
		}
	}
	return sides, firstArgs
}

func readResultFile(t *testing.T, path string) result {
	t.Helper()
	var res result
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPairs runs ten pairs of stub benchmarks, the fewest that earn a
// verdict other than unresolved: the sides alternate and swap who goes
// first in every pair, each run gets the workload, trace and seed, and
// the verdicts follow the stubs' values: "up" and "down" improve in
// every pair by far more than the base's IQR, "flat" moves less than
// its IQR, and "wide" spreads over more than its bound.
func TestPairs(t *testing.T) {
	root := t.TempDir()
	base := stubTree(t, root, "base", map[string]any{"values": map[string][]float64{
		"up": {100, 102, 98, 101}, "down": {50, 51, 49, 50}, "flat": {10, 11, 9, 10}, "wide": {10, 10, 10, 10},
	}})
	change := stubTree(t, root, "change", map[string]any{"values": map[string][]float64{
		"up": {120, 121, 119, 122}, "down": {40, 41, 39, 40}, "flat": {10.1, 10.9, 9.2, 10}, "wide": {5, 15, 8, 20},
	}})
	out := filepath.Join(root, "pairs", "stub.json")
	var stdout, stderr bytes.Buffer
	if code := mainExit([]string{"-workload", "w1", "-n", "10", "-seed", "7", "-out", out, base, change}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	sides, args := runLog(t, root)
	if got, want := strings.Join(sides, " "), strings.TrimSpace(strings.Repeat("base change change base ", 5)); got != want {
		t.Fatalf("run order %q, want %q", got, want)
	}
	if !strings.HasPrefix(args, "-workload w1 -trace 0 -seed 7 ") {
		t.Fatalf("first run's arguments %q", args)
	}
	res := readResultFile(t, out)
	if len(res.Runs) != 20 || res.Failed != 0 || !res.Runs[0].First || res.Runs[1].First || !res.Runs[2].First || res.Runs[2].Side != "change" {
		t.Fatalf("runs %+v, %d failed pairs", res.Runs, res.Failed)
	}
	want := map[string]string{"up": better, "down": better, "flat": noise, "wide": unresolved}
	for _, s := range res.Summary {
		if s.Verdict != want[s.Metric] || s.Pairs != 10 {
			t.Errorf("%s: %s over %d pairs, want %s over 10", s.Metric, s.Verdict, s.Pairs, want[s.Metric])
		}
	}
	if s := res.Summary[0]; s.Wins != 10 || s.BaseMedian != 100.5 || s.ChangeMedian != 120.5 {
		t.Errorf("up: %+v", s)
	}
	if !strings.Contains(stdout.String(), "within noise") {
		t.Errorf("summary table lacks the verdicts:\n%s", stdout.String())
	}
}

// TestFailedPairs: a run that hangs is stopped at the timeout, one
// that crashes and one that reports a failed cycle fail too; each
// fails its pair, which is printed and written with its runs, left
// out of the medians, and makes benchpair exit 1.
func TestFailedPairs(t *testing.T) {
	defer func(g time.Duration) { killGrace = g }(killGrace)
	killGrace = time.Second
	root := t.TempDir()
	vals := map[string][]float64{"up": {1}, "down": {1}, "flat": {1}, "wide": {1}}
	base := stubTree(t, root, "base", map[string]any{"values": vals, "hang_on": 2, "fail_on": 4})
	change := stubTree(t, root, "change", map[string]any{"values": vals, "crash_on": 3})
	out := filepath.Join(root, "out.json")
	var stdout, stderr bytes.Buffer
	code := mainExit([]string{"-workload", "w1", "-n", "5", "-timeout", "3s", "-out", out, base, change}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d with failed pairs, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	res := readResultFile(t, out)
	if len(res.Runs) != 10 || res.Failed != 3 {
		t.Fatalf("%d runs and %d failed pairs, want 10 and 3", len(res.Runs), res.Failed)
	}
	failedRun := map[int]string{}
	for _, r := range res.Runs {
		if !r.OK {
			failedRun[r.Pair] = r.Side
		}
		if r.TimedOut != (r.Pair == 1 && r.Side == "base") {
			t.Errorf("pair %d %s: timed_out=%v", r.Pair, r.Side, r.TimedOut)
		}
	}
	if len(failedRun) != 3 || failedRun[1] != "base" || failedRun[2] != "change" || failedRun[3] != "base" {
		t.Fatalf("failed runs by pair %v, want pair 1 base (hang), 2 change (crash), 3 base (failed cycle)", failedRun)
	}
	for _, r := range res.Runs {
		if r.Pair == 3 && r.Side == "base" && (r.Failed != 1 || !strings.Contains(r.Error, "cycles failed")) {
			t.Errorf("failed-cycle run: %+v", r)
		}
		if r.Pair == 2 && r.Side == "change" && !strings.Contains(r.Stderr, "stub: crashed") {
			t.Errorf("crashed run keeps no stderr: %+v", r)
		}
	}
	for _, s := range res.Summary {
		if s.Pairs != 2 {
			t.Errorf("%s judged over %d pairs, want the 2 that completed", s.Metric, s.Pairs)
		}
	}
	if n := strings.Count(stdout.String(), "FAILED: left out of the medians"); n != 3 {
		t.Errorf("%d failed pairs printed, want 3:\n%s", n, stdout.String())
	}
}

// TestRevisionSide: a side named by a git revision runs in a worktree
// of that commit, which is removed afterwards.
func TestRevisionSide(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	root := t.TempDir()
	vals := map[string][]float64{"up": {1}, "down": {1}, "flat": {1}, "wide": {1}}
	repo := stubTree(t, root, "base", map[string]any{"values": vals})
	git := func(args ...string) string {
		t.Helper()
		out, err := gitOut(repo, append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "stub")
	rev := git("rev-parse", "HEAD")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(repo); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	out := filepath.Join(root, "out.json")
	if code := mainExit([]string{"-workload", "w1", "-n", "1", "-out", out, "HEAD", repo}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if res := readResultFile(t, out); res.Base.Rev != rev || res.Failed != 0 {
		t.Fatalf("base rev %q, %d failed pairs; want %s, 0", res.Base.Rev, res.Failed, rev)
	}
	if wt := git("worktree", "list"); strings.Count(wt, "\n") != 0 {
		t.Fatalf("worktree left behind:\n%s", wt)
	}
}

// TestJudge: the verdict rules on hand-made pairs.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.25}
	ten := func(v float64) []float64 {
		s := make([]float64, 10)
		for i := range s {
			s[i] = v + float64(i%3)*0.1
		}
		return s
	}
	same := func(v float64, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	// tenOf repeats the pattern vs to ten pairs.
	tenOf := func(vs ...float64) []float64 {
		s := make([]float64, 10)
		for i := range s {
			s[i] = vs[i%len(vs)]
		}
		return s
	}
	for _, c := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"better in every pair", lower, ten(20), ten(17.8), better},
		{"worse beyond the bound", lower, ten(20), ten(26), worse},
		{"worse within the bound", lower, ten(20), ten(22), noise},
		{"better in 8 of 10 pairs", lower, ten(20), append(ten(17.8)[:8], 20.5, 20.5), noise},
		{"wide base", lower, tenOf(10, 20), same(10, 10), unresolved},
		// benchmark/compare.go's exception: every change value beats every base value.
		{"wide, every change value better", lower, tenOf(20, 30), tenOf(10, 12), better},
		{"wide, every change value worse", lower, tenOf(10, 12), tenOf(20, 30), unresolved},
		{"no pairs", lower, nil, nil, unresolved},
		// Fewer than minPairs pairs earn no verdict, however one-sided:
		// pairs/pr62-draft-cold-array-bin-seed2.json's result_p50_ms.
		{"3 pairs, all worse", lower, []float64{25.8, 26.8, 27.8}, []float64{33.3, 34.9, 36.5}, unresolved},
		{"3 pairs, all better", lower, []float64{33.3, 34.9, 36.5}, []float64{25.8, 26.8, 27.8}, unresolved},
		{"higher is better", metricDef{Better: "higher", Bound: 0.25}, ten(100), ten(110), better},
		{"no bound, worse in every pair", metricDef{Better: "lower"}, ten(20), ten(30), worse},
		{"no bound, wide", metricDef{Better: "lower"}, tenOf(1, 9), tenOf(2, 8), noise},
		// A base with no spread: the move must still pass minMove.
		{"no bound, 2 B more of 11.3 MB", metricDef{Better: "lower"}, same(11.3e6, 10), same(11.3e6+2, 10), noise},
		{"no bound, 2 B less of 11.3 MB", metricDef{Better: "lower"}, same(11.3e6, 10), same(11.3e6-2, 10), noise},
		{"no bound, 1% more", metricDef{Better: "lower"}, same(100, 10), same(101, 10), worse},
		{"bound, 1% less, no spread", lower, same(100, 10), same(99, 10), better},
		{"bound, 0.01% less, no spread", lower, same(100, 10), same(99.99, 10), noise},
	} {
		if got := judge(c.d, c.base, c.change).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if q := quantile([]float64{4, 1, 3, 2}, 0.25); q != 1.75 {
		t.Errorf("first quartile of 1..4: %v, want 1.75", q)
	}
}
