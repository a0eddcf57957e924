// Package bench is the reproducible performance harness behind
// cmd/tracebench and the CI perf gate: it generates fixed-seed traces
// at several sizes, times the codec and reconstruction hot paths with
// testing.Benchmark, and renders a schema-versioned machine-readable
// report (BENCH_<rev>.json) that the repo's perf trajectory and the
// bench-regression CI job consume.
//
// Scenario names are stable identifiers — Compare matches baseline
// and current results by name, so renaming a scenario silently drops
// it from the gate. Add, don't rename.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump on any
// field change and teach ReadFile about the old versions explicitly.
//
// Version history:
//
//	1 — initial layout.
//	2 — adds Report.Repeat (median-of-N runs) and the optional
//	    per-scenario Result.Stages engine breakdown. Both are
//	    additive, so v1 documents still parse; ReadFile accepts both.
const SchemaVersion = 2

// Report is the root of a BENCH_*.json document.
type Report struct {
	SchemaVersion int       `json:"schema_version"`
	Revision      string    `json:"revision"`
	GoVersion     string    `json:"go_version"`
	GOOS          string    `json:"goos"`
	GOARCH        string    `json:"goarch"`
	CPUs          int       `json:"cpus"`
	Quick         bool      `json:"quick"`
	Timestamp     time.Time `json:"timestamp"`
	// PeakRSSBytes is the process's peak resident set after the run
	// (Linux VmHWM; 0 where unavailable).
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	// Repeat records how many full suite runs this report condenses:
	// 0 or 1 for a single run, N > 1 when MedianReport picked each
	// scenario's median-throughput run out of N (tracebench -repeat).
	Repeat  int      `json:"repeat,omitempty"`
	Results []Result `json:"results"`
}

// Result is one timed scenario.
type Result struct {
	// Name is the stable scenario identifier, e.g.
	// "decode/csv/size=200k" or "e2e/bin/size=200k/workers=1".
	Name string `json:"name"`
	// Requests is the number of trace requests processed per op.
	Requests int64 `json:"requests"`
	// Bytes is the on-disk input bytes processed per op (0 when the
	// scenario has no byte-stream side).
	Bytes int64 `json:"bytes,omitempty"`
	// Workers is the engine worker count (0 for codec scenarios).
	Workers int `json:"workers,omitempty"`
	// NsPerOp is the measured wall time per op.
	NsPerOp float64 `json:"ns_per_op"`
	// MBPerSec is Bytes-based throughput (0 when Bytes is 0).
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	// ReqPerSec is request throughput, the gate's primary metric.
	ReqPerSec float64 `json:"req_per_sec"`
	// AllocsPerReq and AllocBytesPerReq are amortized per-request
	// allocation costs.
	AllocsPerReq     float64 `json:"allocs_per_req"`
	AllocBytesPerReq float64 `json:"alloc_bytes_per_req"`
	// Stages is the per-op engine stage wall-time breakdown in seconds
	// (keys: obs.StageNames plus "token_wait"), present only for engine
	// scenarios run with Options.Stages. Stage seconds sum past NsPerOp
	// on multi-worker runs because stages overlap across goroutines. The
	// device pass, output collection included, is in "service" on
	// hdd/ftl/host and in "decompose" on shard-safe targets; "emulate" is
	// post-process + render everywhere.
	Stages map[string]float64 `json:"stages,omitempty"`
}

// Options configures a Run.
type Options struct {
	// Sizes are the request counts to generate traces at (default
	// 200k, plus 1M when Quick is off).
	Sizes []int
	// Workers are the engine worker counts to time (default 1 and
	// GOMAXPROCS).
	Workers []int
	// Quick trims sizes for the CI gate.
	Quick bool
	// Stages attaches a metrics hook to the engine scenarios and
	// records each one's per-stage wall-time breakdown (Result.Stages).
	// The hook's counters are lock-free atomics, so the perturbation is
	// small, but gate runs should leave this off to time the exact
	// production configuration (a nil hook).
	Stages bool
	// TraceDir, when non-empty, runs one extra untimed op of each
	// engine scenario with a span recorder attached and writes its
	// timeline as a Chrome trace-event file (<scenario>.trace.json)
	// under this directory — load it in Perfetto or chrome://tracing
	// to see where the scenario's wall time goes. The traced op runs
	// outside testing.Benchmark, so the timed numbers are unperturbed.
	TraceDir string
	// Revision labels the report (e.g. a git commit).
	Revision string
	// Log, when non-nil, receives one line per finished scenario.
	Log func(string)
}

func (o Options) withDefaults() Options {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{200_000}
		if !o.Quick {
			o.Sizes = append(o.Sizes, 1_000_000)
		}
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1}
		if n := runtime.GOMAXPROCS(0); n > 1 {
			o.Workers = append(o.Workers, n)
		}
	}
	if o.Revision == "" {
		o.Revision = "dev"
	}
	return o
}

// GenerateTrace synthesizes the deterministic Tsdev-known benchmark
// trace: an MSNFS-profile application executed on the paper's OLD
// device, the same construction the engine benchmarks use, with a
// fixed seed so every run and every machine times identical input.
func GenerateTrace(n int) (*trace.Trace, error) {
	p, ok := workload.Lookup("MSNFS")
	if !ok {
		return nil, fmt.Errorf("bench: MSNFS workload profile missing")
	}
	app := workload.Generate(p, workload.GenOptions{
		Ops:  n,
		Seed: workload.TraceSeed("tracebench", 0),
	})
	res := app.Execute(device.NewHDD(device.DefaultHDDConfig()))
	res.Trace.Name = fmt.Sprintf("tracebench-%d", n)
	return res.Trace, nil
}

// sizeLabel renders a request count compactly ("200k", "1m").
func sizeLabel(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dm", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dk", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// measure converts a testing.Benchmark run into a Result.
func measure(name string, reqs int64, inBytes int64, workers int, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	res := Result{
		Name:     name,
		Requests: reqs,
		Bytes:    inBytes,
		Workers:  workers,
		NsPerOp:  ns,
	}
	if ns > 0 {
		res.ReqPerSec = float64(reqs) / (ns / 1e9)
		if inBytes > 0 {
			res.MBPerSec = float64(inBytes) / 1e6 / (ns / 1e9)
		}
	}
	if reqs > 0 {
		res.AllocsPerReq = float64(r.AllocsPerOp()) / float64(reqs)
		res.AllocBytesPerReq = float64(r.AllocedBytesPerOp()) / float64(reqs)
	}
	return res
}

// measureStaged is measure plus a per-op engine stage breakdown read
// from em. The hook accumulates across every calibration round
// testing.Benchmark runs (and across scenarios sharing an engine), so
// the breakdown is the counter delta over this scenario divided by the
// total iterations observed. A nil em degrades to plain measure.
func measureStaged(em *obs.EngineMetrics, name string, reqs, inBytes int64, workers int, fn func(b *testing.B)) Result {
	if em == nil {
		return measure(name, reqs, inBytes, workers, fn)
	}
	before := em.StageSeconds()
	var iters int64
	res := measure(name, reqs, inBytes, workers, func(b *testing.B) {
		fn(b)
		iters += int64(b.N)
	})
	if iters > 0 {
		after := em.StageSeconds()
		res.Stages = make(map[string]float64, len(after))
		for k, v := range after {
			res.Stages[k] = (v - before[k]) / float64(iters)
		}
	}
	return res
}

// stageLine renders a Stages map in canonical stage order for the
// per-scenario log.
func stageLine(stages map[string]float64) string {
	var sb strings.Builder
	sb.WriteString("    stages/op:")
	for _, name := range append(obs.StageNames[:], "token_wait") {
		if v, ok := stages[name]; ok {
			fmt.Fprintf(&sb, " %s %.1fms", name, v*1e3)
		}
	}
	return sb.String()
}

// TraceFileName maps a scenario name to the file its captured
// timeline lands in: path separators and "=" become filename-safe, so
// "e2e/bin/size=200k/workers=4" → "e2e_bin_size-200k_workers-4.trace.json".
func TraceFileName(scenario string) string {
	r := strings.NewReplacer("/", "_", "=", "-")
	return r.Replace(scenario) + ".trace.json"
}

// captureTrace runs op once against a fresh engine built from cfg with
// a span recorder attached, and writes the resulting timeline as a
// Chrome trace-event file under dir. The engine is rebuilt rather than
// reused because a Tracer records exactly one job.
func captureTrace(dir, scenario string, cfg engine.Config, op func(*engine.Engine) error) (string, error) {
	tra := obs.NewTracer(scenario, 0, obs.TraceContext{})
	cfg.Trace = tra
	if err := op(engine.New(cfg)); err != nil {
		return "", fmt.Errorf("bench: trace capture %s: %w", scenario, err)
	}
	path := filepath.Join(dir, TraceFileName(scenario))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChromeTrace(f, tra.Finish()); err != nil {
		f.Close()
		return "", fmt.Errorf("bench: trace capture %s: %w", scenario, err)
	}
	return path, f.Close()
}

// Run executes the suite and assembles the report.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Revision:      opts.Revision,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.GOMAXPROCS(0),
		Quick:         opts.Quick,
		Timestamp:     time.Now().UTC(),
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			opts.Log(fmt.Sprintf(format, args...))
		}
	}
	add := func(r Result) {
		rep.Results = append(rep.Results, r)
		logf("%-44s %10.0f req/s  %8.1f MB/s  %7.4f allocs/req",
			r.Name, r.ReqPerSec, r.MBPerSec, r.AllocsPerReq)
		if len(r.Stages) > 0 {
			logf("%s", stageLine(r.Stages))
		}
	}
	capture := func(name string, cfg engine.Config, op func(*engine.Engine) error) error {
		if opts.TraceDir == "" {
			return nil
		}
		path, err := captureTrace(opts.TraceDir, name, cfg, op)
		if err != nil {
			return err
		}
		logf("    trace: %s", path)
		return nil
	}

	workers := dedupWorkers(opts.Workers)
	for _, size := range opts.Sizes {
		tr, err := GenerateTrace(size)
		if err != nil {
			return nil, err
		}
		reqs := int64(tr.Len())
		sz := sizeLabel(size)

		var csvBuf, binBuf bytes.Buffer
		if err := trace.WriteCSV(&csvBuf, tr); err != nil {
			return nil, err
		}
		if err := trace.WriteBinary(&binBuf, tr); err != nil {
			return nil, err
		}
		csvData, binData := csvBuf.Bytes(), binBuf.Bytes()

		decode := func(format string, data []byte) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dec, err := trace.NewDecoder(format, bytes.NewReader(data))
					if err != nil {
						b.Fatal(err)
					}
					var batch [512]trace.Request
					n := 0
					for {
						k, err := trace.DecodeBatch(dec, batch[:])
						n += k
						if err == io.EOF {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					if int64(n) != reqs {
						b.Fatalf("decoded %d of %d", n, reqs)
					}
				}
			}
		}
		add(measure(fmt.Sprintf("decode/csv/size=%s", sz), reqs, int64(len(csvData)), 0, decode("csv", csvData)))
		add(measure(fmt.Sprintf("decode/bin/size=%s", sz), reqs, int64(len(binData)), 0, decode("bin", binData)))

		// Segmented parallel decode at each worker count (workers=1
		// measures the fan-out overhead floor against plain decode).
		decodePar := func(format string, data []byte, w int) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dec := trace.NewParallelDecoder(bytes.NewReader(data), int64(len(data)), format, w)
					n := 0
					for {
						batch, err := dec.ReadBatch()
						n += len(batch)
						if err == io.EOF {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					dec.Close()
					if int64(n) != reqs {
						b.Fatalf("decoded %d of %d", n, reqs)
					}
				}
			}
		}
		for _, w := range workers {
			add(measure(fmt.Sprintf("decode-par/csv/size=%s/workers=%d", sz, w), reqs, int64(len(csvData)), w, decodePar("csv", csvData, w)))
			add(measure(fmt.Sprintf("decode-par/bin/size=%s/workers=%d", sz, w), reqs, int64(len(binData)), w, decodePar("bin", binData, w)))
		}

		encode := func(format string) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					enc, err := trace.NewEncoder(format, io.Discard, "/dev/bench")
					if err != nil {
						b.Fatal(err)
					}
					if err := trace.EncodeTrace(enc, tr); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		add(measure(fmt.Sprintf("encode/csv/size=%s", sz), reqs, int64(len(csvData)), 0, encode("csv")))
		add(measure(fmt.Sprintf("encode/bin/size=%s", sz), reqs, int64(len(binData)), 0, encode("bin")))

		for _, w := range workers {
			// One hook per engine: measureStaged snapshots counter deltas,
			// so scenarios sharing the engine stay separable.
			var em *obs.EngineMetrics
			if opts.Stages {
				em = obs.NewEngineMetrics(obs.NewRegistry())
			}
			eng := engine.New(engine.Config{Workers: w, Metrics: em})
			add(measureStaged(em, fmt.Sprintf("reconstruct/size=%s/workers=%d", sz, w), reqs, int64(len(binData)), w,
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						out, _, err := eng.Reconstruct(tr)
						if err != nil {
							b.Fatal(err)
						}
						if out.Len() != tr.Len() {
							b.Fatal("request count mismatch")
						}
					}
				}))
			if err := capture(fmt.Sprintf("reconstruct/size=%s/workers=%d", sz, w),
				engine.Config{Workers: w}, func(te *engine.Engine) error {
					_, _, err := te.Reconstruct(tr)
					return err
				}); err != nil {
				return nil, err
			}

			// End-to-end decode → shard → encode. At workers > 1 the
			// decode side runs on the segmented parallel decoder, the
			// fused multi-core ingest path; workers=1 keeps the
			// sequential decoder so the scenario stays comparable with
			// pre-fusion baselines.
			e2e := func(format string, data []byte) func(b *testing.B) {
				return func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var (
							dec trace.Decoder
							pd  *trace.ParallelDecoder
						)
						if w > 1 {
							pd = trace.NewParallelDecoder(bytes.NewReader(data), int64(len(data)), format, w)
							dec = pd
						} else {
							sd, err := trace.NewDecoder(format, bytes.NewReader(data))
							if err != nil {
								b.Fatal(err)
							}
							dec = sd
						}
						rep, err := eng.ReconstructStream(dec, trace.NewBinaryEncoder(io.Discard), nil)
						if pd != nil {
							pd.Close()
						}
						if err != nil {
							b.Fatal(err)
						}
						if rep.Requests != reqs {
							b.Fatalf("reconstructed %d of %d", rep.Requests, reqs)
						}
					}
				}
			}
			add(measureStaged(em, fmt.Sprintf("e2e/bin/size=%s/workers=%d", sz, w), reqs, int64(len(binData)), w, e2e("bin", binData)))
			add(measureStaged(em, fmt.Sprintf("e2e/csv/size=%s/workers=%d", sz, w), reqs, int64(len(csvData)), w, e2e("csv", csvData)))
			e2eOnce := func(format string, data []byte) func(*engine.Engine) error {
				return func(te *engine.Engine) error {
					var (
						dec trace.Decoder
						pd  *trace.ParallelDecoder
					)
					if w > 1 {
						pd = trace.NewParallelDecoder(bytes.NewReader(data), int64(len(data)), format, w)
						dec = pd
					} else {
						sd, err := trace.NewDecoder(format, bytes.NewReader(data))
						if err != nil {
							return err
						}
						dec = sd
					}
					_, err := te.ReconstructStream(dec, trace.NewBinaryEncoder(io.Discard), nil)
					if pd != nil {
						pd.Close()
					}
					return err
				}
			}
			if err := capture(fmt.Sprintf("e2e/bin/size=%s/workers=%d", sz, w),
				engine.Config{Workers: w}, e2eOnce("bin", binData)); err != nil {
				return nil, err
			}

			// HDD target: a serviced device (the constrained one the
			// paper's co-evaluation measures). workers=1 doubles as the
			// graph-overhead floor against the serial pipeline;
			// reconstruct-hdd times the in-memory engine, e2e-hdd the
			// streaming decode → device pass → parallel csv render
			// chain.
			var hddEM *obs.EngineMetrics
			if opts.Stages {
				hddEM = obs.NewEngineMetrics(obs.NewRegistry())
			}
			hddEng := engine.New(engine.Config{
				Workers: w,
				Device:  func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) },
				Metrics: hddEM,
			})
			add(measureStaged(hddEM, fmt.Sprintf("reconstruct-hdd/size=%s/workers=%d", sz, w), reqs, int64(len(binData)), w,
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						out, _, err := hddEng.Reconstruct(tr)
						if err != nil {
							b.Fatal(err)
						}
						if out.Len() != tr.Len() {
							b.Fatal("request count mismatch")
						}
					}
				}))
			add(measureStaged(hddEM, fmt.Sprintf("e2e-hdd/csv/size=%s/workers=%d", sz, w), reqs, int64(len(binData)), w,
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						dec := trace.NewBinaryDecoder(bytes.NewReader(binData))
						rep, err := hddEng.ReconstructStream(dec, trace.NewCSVEncoder(io.Discard), nil)
						if err != nil {
							b.Fatal(err)
						}
						if rep.Requests != reqs {
							b.Fatalf("reconstructed %d of %d", rep.Requests, reqs)
						}
					}
				}))
			hddCfg := engine.Config{
				Workers: w,
				Device:  func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) },
			}
			if err := capture(fmt.Sprintf("reconstruct-hdd/size=%s/workers=%d", sz, w),
				hddCfg, func(te *engine.Engine) error {
					_, _, err := te.Reconstruct(tr)
					return err
				}); err != nil {
				return nil, err
			}
			if err := capture(fmt.Sprintf("e2e-hdd/csv/size=%s/workers=%d", sz, w),
				hddCfg, func(te *engine.Engine) error {
					dec := trace.NewBinaryDecoder(bytes.NewReader(binData))
					_, err := te.ReconstructStream(dec, trace.NewCSVEncoder(io.Discard), nil)
					return err
				}); err != nil {
				return nil, err
			}

			// FTL and host-stack targets: the deep-state serviced devices. The factories come from the
			// engine's device registry so the bench times exactly what a
			// `device: "ftl"` / `device: "host"` job runs.
			mkFTL, err := engine.DeviceFactory("ftl")
			if err != nil {
				return nil, err
			}
			mkHost, err := engine.DeviceFactory("host")
			if err != nil {
				return nil, err
			}
			reconstructTarget := func(name string, mk func() device.Device) error {
				var em *obs.EngineMetrics
				if opts.Stages {
					em = obs.NewEngineMetrics(obs.NewRegistry())
				}
				eng := engine.New(engine.Config{Workers: w, Device: mk, Metrics: em})
				add(measureStaged(em, fmt.Sprintf("reconstruct-%s/size=%s/workers=%d", name, sz, w), reqs, int64(len(binData)), w,
					func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							out, _, err := eng.Reconstruct(tr)
							if err != nil {
								b.Fatal(err)
							}
							if out.Len() != tr.Len() {
								b.Fatal("request count mismatch")
							}
						}
					}))
				if name == "host" {
					// The host stack is the richest per-request target, so
					// it also carries the streaming end-to-end scenario.
					add(measureStaged(em, fmt.Sprintf("e2e-host/csv/size=%s/workers=%d", sz, w), reqs, int64(len(binData)), w,
						func(b *testing.B) {
							b.ReportAllocs()
							for i := 0; i < b.N; i++ {
								dec := trace.NewBinaryDecoder(bytes.NewReader(binData))
								rep, err := eng.ReconstructStream(dec, trace.NewCSVEncoder(io.Discard), nil)
								if err != nil {
									b.Fatal(err)
								}
								if rep.Requests != reqs {
									b.Fatalf("reconstructed %d of %d", rep.Requests, reqs)
								}
							}
						}))
				}
				return capture(fmt.Sprintf("reconstruct-%s/size=%s/workers=%d", name, sz, w),
					engine.Config{Workers: w, Device: mk}, func(te *engine.Engine) error {
						_, _, err := te.Reconstruct(tr)
						return err
					})
			}
			if err := reconstructTarget("ftl", mkFTL); err != nil {
				return nil, err
			}
			if err := reconstructTarget("host", mkHost); err != nil {
				return nil, err
			}
		}
	}
	rep.PeakRSSBytes = readPeakRSS()
	return rep, nil
}

// MedianReport condenses repeated runs of the same suite into one
// report: for each scenario (matched by name, ordered as in the first
// run) it keeps the run with the median req/s — a real measured run,
// so NsPerOp, allocs and Stages stay mutually consistent, unlike a
// per-field average. With an even number of runs the lower middle
// wins, biasing the gate very slightly conservative. The header comes
// from the first run with Repeat set to the run count; PeakRSSBytes is
// the maximum across runs, since RSS is a high-water mark either way.
func MedianReport(runs []*Report) *Report {
	if len(runs) == 0 {
		return nil
	}
	if len(runs) == 1 {
		return runs[0]
	}
	out := *runs[0]
	out.Repeat = len(runs)
	out.Results = nil
	byName := make(map[string][]Result)
	for _, rep := range runs {
		if rep.PeakRSSBytes > out.PeakRSSBytes {
			out.PeakRSSBytes = rep.PeakRSSBytes
		}
		for _, r := range rep.Results {
			byName[r.Name] = append(byName[r.Name], r)
		}
	}
	for _, first := range runs[0].Results {
		rs := byName[first.Name]
		sort.Slice(rs, func(i, j int) bool { return rs[i].ReqPerSec < rs[j].ReqPerSec })
		out.Results = append(out.Results, rs[(len(rs)-1)/2])
	}
	return &out
}

// dedupWorkers sorts and deduplicates the worker counts.
func dedupWorkers(in []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, w := range in {
		if w > 0 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}
