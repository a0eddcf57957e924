// Command tracebench runs the reproducible performance suite
// (internal/bench) and emits a schema-versioned BENCH_<rev>.json:
// decode-only, encode-only, in-memory reconstruction and streaming
// end-to-end throughput on fixed-seed traces at several sizes and
// worker counts, with amortized allocs/request and peak RSS. The
// repo's perf trajectory commits these files per revision, and the CI
// bench-regression job gates pull requests with -baseline.
//
// Usage:
//
//	tracebench -quick -rev $(git rev-parse --short HEAD)   # CI-sized run
//	tracebench -out BENCH_abc1234.json                     # full run
//	tracebench -quick -baseline BENCH_baseline.json        # run + gate
//	tracebench -compare BENCH_baseline.json BENCH_new.json # gate two files
//	tracebench -quick -daemon http://localhost:8080        # + daemon round trip
//	tracebench -quick -stages                              # + engine stage breakdown
//	tracebench -quick -repeat 5                            # median of 5 runs
//	tracebench -quick -trace traces/                       # + Perfetto timelines
//
// The gate fails (exit 1) on a >15% req/s drop or any allocs/request
// increase beyond counter noise in a scenario both reports share; it
// also fails when the reports share no scenarios, which means the
// gate is misconfigured rather than passing vacuously.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracebench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "CI-sized run (smaller trace sizes)")
	out := fs.String("out", "", "output path (default BENCH_<rev>.json)")
	rev := fs.String("rev", "", "revision label (default: build VCS revision, then \"dev\")")
	sizes := fs.String("sizes", "", "comma-separated request counts (overrides defaults)")
	workers := fs.String("workers", "", "comma-separated worker counts (overrides defaults)")
	baseline := fs.String("baseline", "", "gate this run against a baseline BENCH_*.json")
	compare := fs.Bool("compare", false, "compare two existing reports: -compare BASE CURRENT (no run)")
	daemon := fs.String("daemon", "", "also time a job round trip against a running tracetrackerd URL")
	load := fs.Bool("load", false,
		"load-generation mode against the -daemon URL (skips the bench suite): N tenant clients mix uploads and job submissions with jittered exponential backoff honoring Retry-After, reporting accepted/shed/error rates and accepted-request p99")
	loadTenants := fs.Int("load-tenants", 8, "concurrent tenant client loops in -load mode")
	loadDuration := fs.Duration("load-duration", 10*time.Second, "how long -load mode submits traffic")
	loadKeys := fs.String("load-keys", "", "comma-separated API keys for -load mode, assigned to tenants round-robin (empty = anonymous)")
	loadSize := fs.Int("load-trace-requests", 20_000, "requests in each -load tenant's uploaded trace")
	tolDrop := fs.Float64("tolerance", 0.15, "allowed fractional req/s drop before the gate fails")
	stages := fs.Bool("stages", false,
		"record each engine scenario's per-stage wall-time breakdown (plan/decompose/service/emulate/merge) in the report; the device pass, output collection included, is in service on hdd/ftl/host scenarios and in decompose on shard-safe ones, and emulate is post-process + render everywhere")
	repeat := fs.Int("repeat", 1,
		"run the whole suite N times and report each scenario's median run by req/s (noise suppression)")
	traceDir := fs.String("trace", "",
		"directory (created if missing) for one Chrome trace-event timeline per engine scenario op, viewable in Perfetto; captured outside the timed runs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tol := bench.DefaultTolerance()
	tol.MaxThroughputDrop = *tolDrop

	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two report paths")
		}
		base, err := bench.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		cur, err := bench.ReadFile(fs.Arg(1))
		if err != nil {
			return err
		}
		return gate(stdout, base, cur, tol)
	}

	if *load {
		if *daemon == "" {
			return fmt.Errorf("-load needs -daemon <url>")
		}
		var keys []string
		if *loadKeys != "" {
			keys = strings.Split(*loadKeys, ",")
		}
		rep, err := bench.RunLoad(bench.LoadOptions{
			BaseURL:       strings.TrimSuffix(*daemon, "/"),
			Tenants:       *loadTenants,
			Keys:          keys,
			Duration:      *loadDuration,
			TraceRequests: *loadSize,
			Log:           func(line string) { fmt.Fprintln(stdout, line) },
		})
		if err != nil {
			return err
		}
		if *out != "" {
			data, _ := json.MarshalIndent(rep, "", "  ")
			if err := os.WriteFile(*out, append(data, '\n'), 0o666); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *out)
		}
		// Shed traffic is the daemon doing its job; server errors and
		// lost jobs are not.
		if rep.ServerErrors > 0 || rep.JobsCompleted+rep.JobsFailed != rep.JobsAccepted {
			return fmt.Errorf("load: %d server errors, %d/%d accepted jobs terminal",
				rep.ServerErrors, rep.JobsCompleted+rep.JobsFailed, rep.JobsAccepted)
		}
		return nil
	}

	opts := bench.Options{
		Quick:    *quick,
		Revision: *rev,
		Stages:   *stages,
		TraceDir: *traceDir,
		Log:      func(line string) { fmt.Fprintln(stdout, line) },
	}
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o777); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if opts.Revision == "" {
		opts.Revision = vcsRevision()
	}
	var err error
	if opts.Sizes, err = parseInts(*sizes); err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	if opts.Workers, err = parseInts(*workers); err != nil {
		return fmt.Errorf("-workers: %w", err)
	}

	if *repeat < 1 {
		return fmt.Errorf("-repeat: must be >= 1, got %d", *repeat)
	}
	runs := make([]*bench.Report, 0, *repeat)
	for i := 0; i < *repeat; i++ {
		if *repeat > 1 {
			fmt.Fprintf(stdout, "--- run %d/%d ---\n", i+1, *repeat)
		}
		ro := opts
		if i > 0 {
			// One timeline per scenario is enough; later repeats would
			// only overwrite the first run's files.
			ro.TraceDir = ""
		}
		r, err := bench.Run(ro)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	rep := bench.MedianReport(runs)
	if *repeat > 1 {
		fmt.Fprintf(stdout, "median of %d runs per scenario (by req/s)\n", *repeat)
	}
	if *daemon != "" {
		res, err := daemonRoundTrip(*daemon, *quick)
		if err != nil {
			return fmt.Errorf("daemon scenario: %w", err)
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(stdout, "%-44s %10.0f req/s\n", res.Name, res.ReqPerSec)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rep.Revision)
	}
	if err := bench.WriteFile(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d scenarios, rev %s, peak RSS %.0f MB)\n",
		path, len(rep.Results), rep.Revision, float64(rep.PeakRSSBytes)/1e6)

	if *baseline != "" {
		base, err := bench.ReadFile(*baseline)
		if err != nil {
			return err
		}
		return gate(stdout, base, rep, tol)
	}
	return nil
}

// gate prints the comparison outcome and returns an error on any
// regression (or on a vacuous comparison).
func gate(stdout io.Writer, base, cur *bench.Report, tol bench.Tolerance) error {
	regs, compared := bench.Compare(base, cur, tol)
	if compared == 0 {
		return fmt.Errorf("baseline (rev %s) and current (rev %s) share no scenarios — gate misconfigured",
			base.Revision, cur.Revision)
	}
	fmt.Fprintf(stdout, "gate: %d scenarios compared against rev %s\n", compared, base.Revision)
	if len(regs) == 0 {
		fmt.Fprintln(stdout, "gate: PASS")
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(stdout, "gate: REGRESSION %s\n", r)
	}
	return fmt.Errorf("%d perf regression(s)", len(regs))
}

// vcsRevision pulls the short commit from build info when the binary
// was built inside the repo, else "dev".
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "dev"
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// daemonRoundTrip times the full service path against a live
// tracetrackerd: upload a fixed-seed trace to the corpus, submit a
// reconstruction job for it, poll to completion, and download the
// result. The first iteration pays a real reconstruction; later ones
// hit the daemon's result cache, so the measured steady state is
// submit -> cache hit -> download — deliberately, since that is the
// daemon's hot path for repeated corpus sweeps.
func daemonRoundTrip(baseURL string, quick bool) (bench.Result, error) {
	size := 100_000
	if quick {
		size = 20_000
	}
	tr, err := bench.GenerateTrace(size)
	if err != nil {
		return bench.Result{}, err
	}
	var blob bytes.Buffer
	if err := trace.WriteBinary(&blob, tr); err != nil {
		return bench.Result{}, err
	}
	client := &http.Client{Timeout: 5 * time.Minute}

	// Ingest once; dedup by digest makes repeats cheap.
	resp, err := client.Post(baseURL+"/corpus", "application/octet-stream", bytes.NewReader(blob.Bytes()))
	if err != nil {
		return bench.Result{}, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return bench.Result{}, fmt.Errorf("corpus upload: %s: %s", resp.Status, body)
	}
	var ingest struct {
		Entry struct {
			Digest string `json:"digest"`
		} `json:"entry"`
	}
	if err := json.Unmarshal(body, &ingest); err != nil || ingest.Entry.Digest == "" {
		return bench.Result{}, fmt.Errorf("corpus upload response %q: %v", body, err)
	}

	roundTrip := func() error {
		spec := map[string]any{"in": "corpus:" + ingest.Entry.Digest, "outformat": "bin"}
		specBytes, _ := json.Marshal(spec)
		resp, err := client.Post(baseURL+"/jobs", "application/json", bytes.NewReader(specBytes))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("submit: %s: %s", resp.Status, body)
		}
		var job struct {
			ID    string `json:"id"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &job); err != nil {
			return fmt.Errorf("submit response %q: %w", body, err)
		}
		for {
			resp, err := client.Get(fmt.Sprintf("%s/jobs/%s", baseURL, job.ID))
			if err != nil {
				return err
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(body, &job); err != nil {
				return fmt.Errorf("status response %q: %w", body, err)
			}
			switch job.State {
			case "done":
				resp, err := client.Get(fmt.Sprintf("%s/jobs/%s/result", baseURL, job.ID))
				if err != nil {
					return err
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode/100 != 2 || n == 0 {
					return fmt.Errorf("result: %s (%d bytes)", resp.Status, n)
				}
				return nil
			case "failed":
				return fmt.Errorf("job %s failed: %s", job.ID, job.Error)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := roundTrip(); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return bench.Result{
		Name:      fmt.Sprintf("daemon/roundtrip/size=%d", size),
		Requests:  int64(tr.Len()),
		NsPerOp:   ns,
		ReqPerSec: float64(tr.Len()) / (ns / 1e9),
	}, nil
}
