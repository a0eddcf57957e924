// Command traceverify runs the paper's Section V-A verification
// methodology against a trace: inject idle periods of known length at
// random instructions, run the inference model, and report the
// TP/FP/FN/TN statistics with Detection and Len metrics.
//
// Usage:
//
//	traceverify -in old.csv
//	traceverify -in old.csv -period 1ms -frac 0.1
//	traceverify -workload ikki -ops 20000     (self-generating)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "traceverify: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("traceverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input trace path (omit to self-generate)")
	informat := fs.String("informat", "csv", trace.Usage(trace.Input))
	wl := fs.String("workload", "ikki", "workload family for self-generation")
	ops := fs.Int("ops", 20000, "instructions for self-generation")
	period := fs.Duration("period", 0, "single injected idle period (0 = paper's 100us..100ms sweep)")
	frac := fs.Float64("frac", 0.10, "fraction of instructions receiving an injection")
	seed := fs.Int64("seed", 42, "injection placement seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := loadOrGenerate(*in, *informat, *wl, *ops)
	if err != nil {
		return err
	}

	periods := verify.Periods
	if *period > 0 {
		periods = []time.Duration{*period}
	}

	t := &report.Table{
		Title:   fmt.Sprintf("verification: %s (%d requests, tsdev known: %v)", tr.Name, tr.Len(), tr.TsdevKnown),
		Headers: []string{"period", "TP", "FP", "FN", "TN", "Detect(TP)", "Detect(FP)", "Len(TP) secured", "Len(FP) mean"},
	}
	for i, p := range periods {
		spec := verify.InjectionSpec{Period: p, Frac: *frac, Seed: *seed + int64(i)}
		injected, truth := verify.Inject(tr, spec)
		m, _, err := core.PrepareModel(injected, core.Options{})
		if err != nil {
			return err
		}
		est, _ := infer.Decompose(m, injected)
		met := verify.Evaluate(truth, est)
		t.AddRow(report.FormatDuration(p), met.TP, met.FP, met.FN, met.TN,
			report.Percent(met.DetectionTP()), report.Percent(met.DetectionFP()),
			report.Percent(met.LenTPSecured()), met.LenFPMean())
	}
	t.Render(stdout)
	return nil
}

func loadOrGenerate(path, format, wl string, ops int) (*trace.Trace, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.ReadFormat(format, f)
		if err != nil {
			return nil, err
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("input: %w", err)
		}
		return tr, nil
	}
	p, ok := workload.Lookup(wl)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	// Verification bases carry no natural idles so every estimated
	// idle at a non-injected instruction is a true false positive.
	p.IdleFreq = 0
	tr := workload.Collect(p, workload.GenOptions{Ops: ops, Seed: 7}, device.NewHDD(device.DefaultHDDConfig())).Trace
	tr.Name = p.Name + "-verify"
	return tr, nil
}
