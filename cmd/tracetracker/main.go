// Command tracetracker reconstructs an old block trace for a modern
// storage target: the full co-evaluation pipeline (inference →
// hardware emulation → post-processing), or any of the four baseline
// methods for comparison.
//
// The tracetracker and dynamic methods run on the sharded parallel
// engine (internal/engine): the trace is cut into epochs at idle-period
// boundaries and reconstructed on -parallel workers (default
// GOMAXPROCS), with output byte-identical to the sequential pipeline.
// -device selects the target: the flash array (default) is emulated in
// the workers, epoch by epoch, while the hdd, ftl and host targets get
// one ordered device pass in the engine's serial middle stage, with the
// stages around it on the full -parallel worker count, no serial
// fallback. -stream additionally bounds memory
// by streaming the input through the engine instead of materializing
// it (requires -in and -out; the output is written atomically and the
// fio job file is not emitted in this mode).
//
// Usage:
//
//	tracetracker -in old.csv -out new.csv
//	tracetracker -in old.csv -parallel 8 -out new.csv
//	tracetracker -in old.csv -device hdd -parallel 8 -out oldnode.csv
//	tracetracker -in old.bin -informat bin -stream -out new.bin -outformat bin
//	tracetracker -in old.csv -method revision -out rev.csv
//	tracetracker -in old.bin -informat bin -report
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	in := flag.String("in", "", "input trace path (default stdin)")
	informat := flag.String("informat", "csv", `input format: "csv", "bin", "msrc", "spc", or "auto" (content sniffing)`)
	out := flag.String("out", "", "output trace path (default stdout)")
	outformat := flag.String("outformat", "csv", `output format: "csv", "bin", "blktrace", or "fio"`)
	fioDevice := flag.String("fio-device", "/dev/nvme0n1", "target device path for fio output")
	method := flag.String("method", "tracetracker",
		`reconstruction method: "tracetracker", "dynamic", "fixed-th", "revision", "acceleration"`)
	devName := flag.String("device", "new",
		`reconstruction target: "new"/"array" (the paper's flash array), "ssd", "old"/"hdd", "ftl" (page-mapped flash translation layer with GC), or "host"/"hoststack" (page cache + write-back over an HDD); hdd/ftl/host run one ordered device pass with the stages around it at full -parallel`)
	factor := flag.Float64("factor", baseline.DefaultAccelerationFactor, "acceleration factor")
	threshold := flag.Duration("threshold", baseline.DefaultFixedThreshold, "fixed-th idle threshold")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"engine workers for the tracetracker/dynamic methods (output stays byte-identical)")
	stream := flag.Bool("stream", false,
		"stream the reconstruction with bounded memory (requires -in and -out; tracetracker/dynamic only)")
	reorderWindow := flag.Int("reorder-window", 0,
		"streaming arrival-sort window for near-sorted corpora (0 = auto per format)")
	showReport := flag.Bool("report", false, "print the reconstruction report to stderr")
	flag.Parse()

	mkDevice, err := engine.DeviceFactory(*devName)
	if err != nil {
		fatal(err)
	}

	if *stream {
		if err := runStream(*in, *informat, *out, *outformat, *fioDevice, *method, *devName, *parallel, *reorderWindow, *showReport); err != nil {
			fatal(err)
		}
		return
	}

	old, err := readTrace(*in, *informat)
	if err != nil {
		fatal(err)
	}
	if err := old.Validate(); err != nil {
		fatal(fmt.Errorf("input: %w", err))
	}

	var (
		result *trace.Trace
		rep    *core.Report
	)
	switch *method {
	case "tracetracker", "dynamic":
		eng := engine.New(engine.Config{
			Workers: *parallel,
			Core:    core.Options{SkipPostProcess: *method == "dynamic"},
			Device:  mkDevice,
		})
		result, rep, err = eng.Reconstruct(old)
	case "fixed-th":
		result = baseline.FixedTh(old, mkDevice(), *threshold)
	case "revision":
		result = baseline.Revision(old, mkDevice())
	case "acceleration":
		result = baseline.Acceleration(old, *factor)
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}
	if err != nil {
		fatal(err)
	}

	if *showReport && rep != nil {
		t := &report.Table{Title: "reconstruction report", Headers: []string{"metric", "value"}}
		t.AddRow("requests", old.Len())
		t.AddRow("idle instructions", rep.IdleCount)
		t.AddRow("total idle", rep.IdleTotal)
		t.AddRow("async instructions", rep.AsyncCount)
		addModelRows(t, rep.Model)
		t.AddRow("old duration", old.Duration())
		t.AddRow("new duration", result.Duration())
		t.Render(os.Stderr)
	}

	if err := writeTrace(*out, *outformat, *fioDevice, result); err != nil {
		fatal(err)
	}
}

// runStream drives the bounded-memory engine path by delegating to
// the same engine.RunJob the daemon executes (two passes over the
// input file on the inference path: model fit, then sharded
// reconstruction; the output is written atomically).
func runStream(in, informat, out, outformat, fioDevice, method, devName string, parallel, reorderWindow int, showReport bool) error {
	if method != "tracetracker" && method != "dynamic" {
		return fmt.Errorf("-stream runs the tracetracker/dynamic methods, not %q (the baselines materialize the trace)", method)
	}
	if in == "" {
		return fmt.Errorf("-stream needs -in (the model-fit pass re-reads the input)")
	}
	if out == "" {
		return fmt.Errorf("-stream needs -out (the output is written atomically via a temp file)")
	}
	if informat == "auto" {
		// Job specs carry a concrete format (the engine re-opens the
		// input for its two passes), so resolve the sniff here.
		detected, err := trace.DetectFile(in)
		if err != nil {
			return err
		}
		informat = detected
	}
	res, err := engine.RunJob(engine.Config{}, engine.JobSpec{
		In:            in,
		InFormat:      informat,
		Out:           out,
		OutFormat:     outformat,
		FIODevice:     fioDevice,
		Method:        method,
		Device:        devName,
		Parallel:      parallel,
		ReorderWindow: reorderWindow,
	})
	if err != nil {
		return err
	}
	rep := res.Report
	if showReport {
		t := &report.Table{Title: "streaming reconstruction report", Headers: []string{"metric", "value"}}
		t.AddRow("requests", rep.Requests)
		t.AddRow("shards", rep.Shards)
		t.AddRow("workers", rep.Workers)
		t.AddRow("idle instructions", rep.IdleCount)
		t.AddRow("total idle", rep.IdleTotal)
		t.AddRow("async instructions", rep.AsyncCount)
		addModelRows(t, rep.Model)
		t.Render(os.Stderr)
	}
	return nil
}

// addModelRows appends the fitted model's parameters to a report
// table (no-op on the recorded-latency path), so the streaming and
// in-memory reports cannot drift.
func addModelRows(t *report.Table, m *infer.Model) {
	if m == nil {
		return
	}
	t.AddRow("beta (us/sector)", m.BetaMicros)
	t.AddRow("eta (us/sector)", m.EtaMicros)
	t.AddRow("Tcdel read", time.Duration(m.TcdelReadMicros*float64(time.Microsecond)))
	t.AddRow("Tcdel write", time.Duration(m.TcdelWriteMicros*float64(time.Microsecond)))
	t.AddRow("Tmovd", time.Duration(m.TmovdMicros*float64(time.Microsecond)))
}

func readTrace(path, format string) (*trace.Trace, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadAuto(format, r)
}

func writeTrace(path, format, fioDevice string, t *trace.Trace) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if format == "fio" {
		// Emit the iolog; the matching job file goes to stderr as a
		// convenience so a single pipeline produces both.
		if err := trace.WriteFIOLog(w, t, fioDevice); err != nil {
			return err
		}
		return trace.WriteFIOJob(os.Stderr, t, path, fioDevice)
	}
	enc, err := trace.NewEncoder(format, w, fioDevice)
	if err != nil {
		return err
	}
	return trace.EncodeTrace(enc, t)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tracetracker: %v\n", err)
	os.Exit(1)
}
