// Command benchpair runs the benchmark of record (the repository's
// ./benchmark) on two trees in alternating pairs and judges every
// metric of BENCHMARK.json on the paired runs: each side's median and
// IQR, how many pairs the change wins, the ratio of the medians and a
// verdict (better, worse, within noise or unresolved) against the
// metric's bound and direction in the change tree's BENCHMARK.json.
// Every run takes the benchmark's own length: both sides run alike.
//
//	benchpair -workload cold-array-bin -n 10 -out pairs/cold-array-bin.json BASE CHANGE
//
// BASE and CHANGE are each a directory holding a tree, or a git
// revision of the repository benchpair runs in, which is checked out
// into a temporary worktree first: the benchmark builds
// cmd/tracetrackerd from the directory it runs in, so a revision must
// be a tree of its own. A directory is used as it is and must not
// change while benchpair runs. Each tree's ./benchmark is built once
// into a temporary directory. Every pair runs
// `benchmark -workload W -trace T -seed S` on both sides, the base
// first in the first pair and the first side flipped in each next
// one, each run under a hard timeout (SIGTERM to the run's process
// group, then SIGKILL).
// A run that fails, times out or ends without the benchmark's one-line
// JSON summary, or whose summary reports a failed cycle, fails its
// pair: the pair is printed and written as failed and left out of the
// medians, and benchpair exits 1. Every run goes to the -out file.
// Linux only, as the benchmark is.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is what one benchpair invocation runs.
type config struct {
	workload string
	trace    int
	seed     int64
	pairs    int
	timeout  time.Duration
	out      string
}

// side is one of the two trees.
type side struct {
	Name string `json:"name"` // "base" or "change"
	Arg  string `json:"arg"`  // the directory or revision given
	Rev  string `json:"rev,omitempty"`
	dir  string // the tree the benchmark runs in
	bin  string // its built ./benchmark
	work string // its -workdir
}

// run is one benchmark run of one side.
type run struct {
	Pair     int                `json:"pair"` // from 0; printed from 1
	Side     string             `json:"side"`
	First    bool               `json:"first"` // ran first in its pair
	OK       bool               `json:"ok"`
	Error    string             `json:"error,omitempty"`
	TimedOut bool               `json:"timed_out,omitempty"`
	Seconds  float64            `json:"seconds"`
	Failed   int                `json:"failed_cycles"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Stderr   string             `json:"stderr_tail,omitempty"` // of a failed run
}

// result is the -out file.
type result struct {
	Workload string    `json:"workload"`
	Trace    int       `json:"trace"`
	Seed     int64     `json:"seed"`
	Pairs    int       `json:"pairs"`
	Failed   int       `json:"failed_pairs"`
	Timeout  string    `json:"timeout"`
	Host     host      `json:"host"`
	Base     side      `json:"base"`
	Change   side      `json:"change"`
	Summary  []summary `json:"summary"`
	Runs     []run     `json:"runs"`
}

// host names the machine class the runs came from.
type host struct {
	CPUs int    `json:"cpus"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
	Go   string `json:"go"`
}

func main() { os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr)) }

func mainExit(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchpair -workload W [flags] BASE CHANGE")
		fs.PrintDefaults()
	}
	fs.StringVar(&cfg.workload, "workload", "", "benchmark workload to pair (required)")
	fs.IntVar(&cfg.trace, "trace", 0, "benchmark -trace: 0 for the end-to-end metrics, 1 for the per-layer ones")
	fs.Int64Var(&cfg.seed, "seed", 1, "benchmark -seed (1 is its default, pinned by inputs.lock.json)")
	fs.IntVar(&cfg.pairs, "n", 10, "pairs to run")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Minute, "hard limit on one run")
	fs.StringVar(&cfg.out, "out", "", "file every run and the summary are written to (default benchpair-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 || cfg.workload == "" || cfg.pairs < 1 || cfg.timeout <= 0 || cfg.trace < 0 || cfg.trace > 1 {
		fs.Usage()
		return 2
	}
	if cfg.out == "" {
		cfg.out = "benchpair-" + cfg.workload + ".json"
	}
	res, err := pair(cfg, fs.Arg(0), fs.Arg(1), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchpair:", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// pair prepares both sides, runs the pairs, prints the summary and
// writes the -out file.
func pair(cfg config, baseArg, changeArg string, stdout io.Writer) (*result, error) {
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	base, change := &side{Name: "base", Arg: baseArg}, &side{Name: "change", Arg: changeArg}
	for _, s := range []*side{base, change} {
		cleanup, err := s.prepare(tmp)
		if cleanup != nil {
			defer cleanup()
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", s.Name, s.Arg, err)
		}
	}
	defs, err := readManifest(filepath.Join(change.dir, "BENCHMARK.json"), cfg.trace)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed,
		Pairs: cfg.pairs, Timeout: cfg.timeout.String(), Base: *base, Change: *change,
		Host: host{CPUs: runtime.NumCPU(), OS: runtime.GOOS, Arch: runtime.GOARCH, Go: runtime.Version()}}
	var failed []int
	for i := 0; i < cfg.pairs; i++ {
		order := []*side{base, change}
		if i%2 == 1 {
			order[0], order[1] = change, base
		}
		ok := true
		for j, s := range order {
			r := s.run(cfg, i)
			r.First = j == 0
			res.Runs = append(res.Runs, r)
			ok = ok && r.OK
			status := fmt.Sprintf("ok in %.1fs", r.Seconds)
			if !r.OK {
				status = "FAILED: " + r.Error
			}
			fmt.Fprintf(stdout, "pair %d/%d %-6s %s\n", i+1, cfg.pairs, s.Name, status)
		}
		if !ok {
			failed = append(failed, i)
			fmt.Fprintf(stdout, "pair %d/%d FAILED: left out of the medians\n", i+1, cfg.pairs)
		}
	}
	res.Failed = len(failed)
	res.Summary = summarize(defs, res.Runs)
	printSummary(stdout, res, failed)
	if err := writeResult(cfg.out, res); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "wrote %s\n", cfg.out)
	return res, nil
}

// prepare resolves the side's tree (a temporary worktree for a
// revision), builds its ./benchmark into tmp and makes its workdir.
// The returned cleanup, when not nil, removes the worktree.
func (s *side) prepare(tmp string) (cleanup func(), err error) {
	if st, err := os.Stat(s.Arg); err == nil && st.IsDir() {
		if s.dir, err = filepath.Abs(s.Arg); err != nil {
			return nil, err
		}
	} else {
		if s.Rev, err = gitOut("", "rev-parse", "--verify", s.Arg+"^{commit}"); err != nil {
			return nil, fmt.Errorf("neither a directory nor a revision: %w", err)
		}
		s.dir = filepath.Join(tmp, s.Name+"-tree")
		if _, err := gitOut("", "worktree", "add", "--detach", s.dir, s.Rev); err != nil {
			return nil, err
		}
		cleanup = func() {
			if _, err := gitOut("", "worktree", "remove", "--force", s.dir); err != nil {
				fmt.Fprintln(os.Stderr, "benchpair:", err)
			}
		}
	}
	s.bin = filepath.Join(tmp, s.Name+"-benchmark")
	s.work = filepath.Join(tmp, s.Name+"-work")
	if err := os.Mkdir(s.work, 0o755); err != nil {
		return cleanup, err
	}
	build := exec.Command("go", "build", "-buildvcs=false", "-o", s.bin, "./benchmark")
	build.Dir = s.dir
	if out, err := build.CombinedOutput(); err != nil {
		return cleanup, fmt.Errorf("go build ./benchmark: %w\n%s", err, out)
	}
	return cleanup, nil
}

// gitOut runs git in dir ("" for the current directory) and returns
// its trimmed standard output.
func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// killGrace is how long a timed-out run has, after SIGTERM, to stop
// its daemon and exit before its process group is killed.
var killGrace = 10 * time.Second

// run runs the side's benchmark once, in its tree, under cfg.timeout.
func (s *side) run(cfg config, pairIdx int) run {
	r := run{Pair: pairIdx, Side: s.Name}
	args := []string{"-workload", cfg.workload, "-trace", fmt.Sprint(cfg.trace), "-seed", fmt.Sprint(cfg.seed),
		"-workdir", s.work, "-out", filepath.Join(s.work, "result.json")}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, s.bin, args...)
	cmd.Dir = s.dir
	// The benchmark starts a daemon of its own: the run gets a process
	// group, so a timeout stops the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGTERM) }
	cmd.WaitDelay = killGrace
	var stdout bytes.Buffer
	stderr := &tailBuffer{max: 4 << 10}
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	start := time.Now()
	err := cmd.Run()
	r.Seconds = time.Since(start).Seconds()
	if cmd.Process != nil {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // whatever outlived the run
	}
	sum, perr := parseSummary(stdout.Bytes())
	if perr == nil {
		r.Metrics, r.Failed = sum.metrics(), sum.Failed
	}
	switch {
	case ctx.Err() == context.DeadlineExceeded:
		r.TimedOut = true
		r.Error = fmt.Sprintf("timed out after %s", cfg.timeout)
	case perr == nil && (!sum.Correct || sum.Failed > 0):
		r.Error = fmt.Sprintf("%d of %d cycles failed", sum.Failed, sum.Attempted)
	case err != nil:
		r.Error = err.Error()
	case perr != nil:
		r.Error = perr.Error()
	default:
		r.OK = true
	}
	if !r.OK {
		r.Stderr = stderr.String()
	}
	return r
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if over := len(t.b) - t.max; over > 0 {
		t.b = append(t.b[:0], t.b[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string { return string(t.b) }

// benchSummary is the one-line JSON object the benchmark prints last
// with -workload.
type benchSummary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func (b *benchSummary) metrics() map[string]float64 {
	m := make(map[string]float64, len(b.Metrics))
	for name, v := range b.Metrics {
		m[name] = v.Value
	}
	return m
}

// parseSummary reads the last non-empty line of a run's output.
func parseSummary(out []byte) (*benchSummary, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	var sum benchSummary
	if err := json.Unmarshal(last, &sum); err != nil || sum.Metrics == nil {
		return nil, errors.New("no JSON summary on the last line of the output")
	}
	return &sum, nil
}

// readManifest returns the metrics BENCHMARK.json names for the trace
// level: the end-to-end set for 0, the per-layer set for 1.
func readManifest(path string, trace int) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if trace == 1 {
		return m.PerLayer, nil
	}
	return m.EndToEnd, nil
}

// summarize judges every metric over the pairs whose two runs both
// completed.
func summarize(defs []metricDef, runs []run) []summary {
	byPair := map[int]map[string]run{}
	for _, r := range runs {
		if byPair[r.Pair] == nil {
			byPair[r.Pair] = map[string]run{}
		}
		byPair[r.Pair][r.Side] = r
	}
	pairs := make([]int, 0, len(byPair))
	for p := range byPair {
		pairs = append(pairs, p)
	}
	sort.Ints(pairs)
	var out []summary
	for _, d := range defs {
		var base, change []float64
		for _, p := range pairs {
			b, c := byPair[p]["base"], byPair[p]["change"]
			bv, bok := b.Metrics[d.Name]
			cv, cok := c.Metrics[d.Name]
			if b.OK && c.OK && bok && cok {
				base, change = append(base, bv), append(change, cv)
			}
		}
		out = append(out, judge(d, base, change))
	}
	return out
}

func printSummary(w io.Writer, res *result, failed []int) {
	fmt.Fprintf(w, "\n%s -trace %d -seed %d: %d pairs, %d failed", res.Workload, res.Trace, res.Seed, res.Pairs, res.Failed)
	if len(failed) > 0 {
		fmt.Fprintf(w, " (pairs")
		for _, p := range failed {
			fmt.Fprintf(w, " %d", p+1)
		}
		fmt.Fprintf(w, ")")
	}
	fmt.Fprintf(w, "; base %s, change %s\n", res.Base.Arg, res.Change.Arg)
	fmt.Fprintf(w, "%-32s %12s %10s %12s %10s %7s %7s  %s\n", "metric", "base", "IQR", "change", "IQR", "wins", "ratio", "verdict")
	for _, s := range res.Summary {
		fmt.Fprintf(w, "%-32s %12.4g %10.3g %12.4g %10.3g %3d/%-3d %7.3f  %s\n",
			s.Metric, s.BaseMedian, s.BaseIQR, s.ChangeMedian, s.ChangeIQR, s.Wins, s.Pairs, s.Ratio, s.Verdict)
	}
}

func writeResult(path string, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
