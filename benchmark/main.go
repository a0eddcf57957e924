// Command benchmark is the repository's benchmark of record: it builds
// cmd/tracetrackerd from the tree, drives it over loopback HTTP with
// one closed-loop client (upload → reconstruct → serve), checks every
// served byte against the serial core.Reconstruct reference, and in a
// separate traced pass times the calls into each layer's public
// functions so an end-to-end number can be explained layer by layer.
//
//	go run ./benchmark                        # five workloads, all metrics
//	go run ./benchmark -workload cold-ftl-bin -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -compare A.json B.json
//
// See README.md in this directory for every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is the run length the workload table's cycle counts
// are sized for; BENCHMARK.json's run_seconds carries the same value.
const defaultSeconds = 10

// config is one invocation's settings. The zero requests/cycles mean
// "as the workload table says"; the self-test overrides them to run
// at smoke size.
type config struct {
	seed     int64
	seconds  float64
	rounds   int
	warmup   int
	reps     int
	requests int
	cycles   int
	// indexEntries is the catalogue size the corpus index probe fills
	// before timing an ingest.
	indexEntries int
	parallel     int
	workdir      string
	// trace selects the passes reported: 0 the end-to-end metrics
	// only (no span is recorded anywhere), 1 the per-layer metrics,
	// -1 both.
	trace int
	log   io.Writer
}

func defaultConfig() config {
	return config{
		seed: lockSeed, seconds: defaultSeconds, rounds: 3, warmup: 5, reps: 5, indexEntries: 512,
		parallel: min(runtime.NumCPU(), 4), workdir: "benchmark/out", trace: -1, log: os.Stdout,
	}
}

// header records what a result file's numbers depend on besides the
// code.
type header struct {
	CPUs       int     `json:"cpus"`
	Parallel   int     `json:"parallel"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Filesystem string  `json:"data_filesystem"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Warmup     int     `json:"warmup_cycles"`
	BuildS     float64 `json:"build_s"`
}

type workloadResult struct {
	Name      string   `json:"name"`
	Requests  int      `json:"requests"`
	Cycles    int      `json:"cycles_per_round"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  metrics  `json:"end_to_end"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
}

type report struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *report) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// run measures the given workloads: set-up, the timed rounds
// interleaved across workloads (A B C, A B C, …) so slow drift of the
// machine lands on all of them alike, then the traced pass.
func run(cfg config, specs []workloadSpec) (*report, error) {
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format+"\n", args...) }
	if err := os.MkdirAll(cfg.workdir, 0o777); err != nil {
		return nil, err
	}
	bin, buildTook, err := buildDaemon(cfg.workdir)
	if err != nil {
		return nil, err
	}
	defer onExit(func() { os.Remove(bin) })()
	rep := &report{Header: header{
		CPUs: runtime.NumCPU(), Parallel: cfg.parallel, GoVersion: runtime.Version(), Kernel: kernelRelease(),
		Filesystem: filesystemOf(cfg.workdir), Seed: cfg.seed, Seconds: cfg.seconds,
		Rounds: cfg.rounds, Warmup: cfg.warmup, BuildS: buildTook.Seconds(),
	}}
	h := rep.Header
	logf("benchmark: cpus=%d parallel=%d %s kernel=%s data_fs=%s seed=%d seconds=%g rounds=%d warmup=%d build_s=%.2f",
		h.CPUs, h.Parallel, h.GoVersion, h.Kernel, h.Filesystem, h.Seed, h.Seconds, h.Rounds, h.Warmup, h.BuildS)

	// The lock covers the table's sizes at the default seed only.
	var lock map[string][]string
	if cfg.requests == 0 && cfg.seed == lockSeed {
		if err := readJSONFile(lockFile, &lock); err != nil {
			return nil, err
		}
	}
	runners := make([]*runner, len(specs))
	for i, w := range specs {
		if cfg.requests > 0 {
			w.Requests = cfg.requests
		}
		r := &runner{cfg: cfg, spec: w, cycles: cfg.cycles}
		if r.cycles == 0 {
			r.cycles = max(2, int(math.Round(float64(w.Cycles)*cfg.seconds/defaultSeconds)))
		}
		for b := 0; b < numBases; b++ {
			built, err := buildBase(w, b, cfg.seed, b == 0)
			if err != nil {
				return nil, fmt.Errorf("%s base %d: %w", w.Name, b, err)
			}
			r.bases = append(r.bases, built)
		}
		if lock != nil {
			if err := checkLock(lock, w, r.bases); err != nil {
				return nil, err
			}
		}
		runners[i] = r
		logf("set up %-15s %d bases x %d requests (%s -> %s on %s), %d cycles/round",
			w.Name, len(r.bases), w.Requests, w.InFormat, w.OutFormat, w.Device, r.cycles)
	}

	for round := 0; round < cfg.rounds; round++ {
		for _, r := range runners {
			if err := r.round(bin, round); err != nil {
				return nil, err
			}
		}
	}

	for _, r := range runners {
		attempted, failed, failures := r.counts()
		res := workloadResult{
			Name: r.spec.Name, Requests: r.spec.Requests, Cycles: r.cycles,
			Attempted: attempted, Failed: failed, Failures: failures,
			EndToEnd: r.endToEnd(),
		}
		if cfg.trace != 0 {
			rec := newRecorder(r.spec.Name, cfg.reps)
			traced, err := tracedPass(cfg, r.spec, r.bases[0], rec)
			if err != nil {
				return nil, fmt.Errorf("%s traced pass: %w", r.spec.Name, err)
			}
			if err := rec.writeChrome(filepath.Join(cfg.workdir, "spans-"+r.spec.Name+".json")); err != nil {
				return nil, err
			}
			res.PerLayer = layerMetrics(r.spec, traced, res.EndToEnd, r.daemonLayer())
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep, nil
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// print writes every metric by name with its unit and, where a metric
// has one value per round, the min..max of those.
func (r *report) print(w io.Writer) {
	section := func(title string, m metrics) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, name := range sortedNames(m) {
			v := m[name]
			fmt.Fprintf(w, "    %-34s %14.4f %-7s", name, v.Value, v.Unit)
			if v.Min != nil {
				fmt.Fprintf(w, " [%.4f .. %.4f]", *v.Min, *v.Max)
			}
			fmt.Fprintln(w)
		}
	}
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "workload %s: %d requests, %d cycles/round, %d attempted, %d failed\n",
			wl.Name, wl.Requests, wl.Cycles, wl.Attempted, wl.Failed)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		section("end-to-end", wl.EndToEnd)
		section("per-layer", wl.PerLayer)
	}
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeJSONFile writes v indented, newline-terminated: the form of the
// result files and of inputs.lock.json.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// manifest is BENCHMARK.json: which metrics are gated, their
// direction and the bound by which each may worsen.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const manifestFile = "BENCHMARK.json"

func readManifest() (*manifest, error) {
	var m manifest
	return &m, readJSONFile(manifestFile, &m)
}

// resultLine renders the one-workload summary a driver parses: the
// manifest's end-to-end metrics for trace 0, its per-layer metrics
// for trace 1, both otherwise.
func resultLine(man *manifest, res workloadResult, trace int) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	pick := func(defs []manifestMetric, from metrics) error {
		for _, d := range defs {
			v, ok := from[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return fmt.Errorf("%s names metric %q, which %s did not produce", manifestFile, d.Name, res.Name)
			}
			out.Metrics[d.Name] = value{v.Value, v.Unit}
		}
		return nil
	}
	if trace != 1 {
		if err := pick(man.EndToEnd, res.EndToEnd); err != nil {
			return "", err
		}
	}
	if trace != 0 {
		if err := pick(man.PerLayer, res.PerLayer); err != nil {
			return "", err
		}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// relock regenerates the default-seed inputs and pins their sums.
func relock() error {
	lock := map[string][]string{}
	for _, w := range workloads {
		for b := 0; b < numBases; b++ {
			built, err := buildBase(w, b, lockSeed, false)
			if err != nil {
				return fmt.Errorf("%s base %d: %w", w.Name, b, err)
			}
			lock[w.Name] = append(lock[w.Name], built.lockSum)
		}
	}
	return writeJSONFile(lockFile, lock)
}

func main() { os.Exit(mainExit()) }

func mainExit() (code int) {
	cfg := defaultConfig()
	workloadName := flag.String("workload", "", "run this one workload and print a one-line JSON summary last (default: all five)")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "input seed; the default is pinned by inputs.lock.json, any other is a held-out input set")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed seconds per workload the cycle counts are scaled to")
	flag.IntVar(&cfg.trace, "trace", cfg.trace, "0: end-to-end metrics only, no spans recorded; 1: per-layer metrics (traced pass); -1: both")
	flag.StringVar(&cfg.workdir, "workdir", cfg.workdir, "directory for the daemon binary, its data directories and the span files")
	out := flag.String("out", "", "result file (default <workdir>/result.json)")
	compareMode := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	relockMode := flag.Bool("relock", false, "rewrite inputs.lock.json from the current generators (benchmark-only changes)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *compareMode {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *relockMode {
		if err := relock(); err != nil {
			return fail(err)
		}
		return 0
	}
	if cfg.seconds <= 0 || cfg.trace < -1 || cfg.trace > 1 {
		return fail(errors.New("-seconds must be positive and -trace one of -1, 0, 1"))
	}
	specs := workloads
	if *workloadName != "" {
		w, ok := lookupWorkload(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		specs = []workloadSpec{w}
	}
	man, err := readManifest()
	if err != nil {
		return fail(err)
	}

	// Daemons and data directories are released on every way out: a
	// signal, a panic (deferred calls run while it unwinds), a return.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()
	defer runCleanups()

	rep, err := run(cfg, specs)
	if err != nil {
		return fail(err)
	}
	rep.print(os.Stdout)
	if *out == "" {
		*out = filepath.Join(cfg.workdir, "result.json")
	}
	if err := writeJSONFile(*out, rep); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if *workloadName != "" {
		line, err := resultLine(man, rep.Workloads[0], cfg.trace)
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
	}
	if rep.failed() > 0 {
		return 1
	}
	return 0
}
