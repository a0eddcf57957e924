// Command tracetracker reconstructs an old block trace for a modern
// storage target: the full co-evaluation pipeline (inference →
// hardware emulation → post-processing), or any of the four baseline
// methods for comparison.
//
// It is a front end to engine.RunJob, the job path tracetrackerd runs:
// the flags fill an engine.JobSpec, -parallel the engine.Config's
// workers, and the engine streams the input through its stage graph on
// them — bounded memory, output byte-identical to the sequential
// pipeline at any worker count, on every -device — and -out is written
// atomically, so a failed run never touches an existing file. Stdin,
// or an -in that is not a regular file, is spooled to a temporary file
// for the model-fit pass to re-read; without -out, output goes to stdout.
// -outformat fio also prints the matching fio job file to stderr.
//
// Usage:
//
//	tracetracker -in old.csv -out new.csv
//	tracetracker -in old.csv -device hdd -parallel 8 -out oldnode.csv
//	tracetracker -in old.bin -informat auto -out new.bin -outformat bin -report
//	tracetracker -in old.csv -method revision -out rev.csv
//	tracegen -workload MSNFS | tracetracker | tracestat
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "tracetracker: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	var spec engine.JobSpec
	var cfg engine.Config
	fs := flag.NewFlagSet("tracetracker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&spec.In, "in", "", "input trace path (default stdin)")
	fs.StringVar(&spec.InFormat, "informat", "csv", trace.Usage(trace.Input))
	fs.StringVar(&spec.Out, "out", "", "output trace path, written atomically (default stdout)")
	fs.StringVar(&spec.OutFormat, "outformat", "csv", trace.Usage(trace.Output))
	fs.StringVar(&spec.FIODevice, "fio-device", "/dev/nvme0n1", "target device path for fio output")
	methods := engine.Methods()
	for i := range methods {
		methods[i] = strconv.Quote(methods[i])
	}
	fs.StringVar(&spec.Method, "method", "tracetracker", "reconstruction method: "+strings.Join(methods, ", "))
	var stateful []string
	for _, d := range engine.Devices() {
		if d.Pipeline == engine.PipelineStateful {
			stateful = append(stateful, d.Name)
		}
	}
	fs.StringVar(&spec.Device, "device", "new", "reconstruction target: "+engine.DeviceUsage()+
		"; "+strings.Join(stateful, "/")+" run one ordered device pass with the stages around it at full -parallel")
	fs.Float64Var(&spec.Factor, "factor", 0, "acceleration factor (0 = the paper's)")
	threshold := fs.Duration("threshold", 0, "fixed-th idle threshold (0 = the paper's tuned value)")
	fs.IntVar(&cfg.Workers, "parallel", 0,
		"engine workers (0 = GOMAXPROCS; output stays byte-identical)")
	showReport := fs.Bool("report", false, "print the reconstruction report to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec.ThresholdUS = float64(*threshold) / float64(time.Microsecond)

	spec.Name = cmp.Or(spec.In, "stdin")
	// The engine opens its input by path, twice on the inference path
	// (model fit, then reconstruction); a spec's format is concrete.
	in, format, done, err := trace.InputFile(spec.In, spec.InFormat, stdin, "tracetracker-stdin-*")
	if err != nil {
		return err
	}
	defer done()
	spec.In, spec.InFormat = in, format

	var rep *engine.Report
	if spec.Out != "" {
		res, err := engine.RunJob(cfg, spec)
		if err != nil {
			return err
		}
		rep = res.Report
	} else if rep, err = engine.RunJobTo(cfg, spec, stdout); err != nil {
		return err
	}

	if *showReport && rep != nil {
		t := &report.Table{Title: "reconstruction report", Headers: []string{"metric", "value"}}
		t.AddRow("requests", rep.Requests)
		t.AddRow("shards", rep.Shards)
		t.AddRow("workers", rep.Workers)
		t.AddRow("idle instructions", rep.IdleCount)
		t.AddRow("total idle", rep.IdleTotal)
		t.AddRow("async instructions", rep.AsyncCount)
		if m := rep.Model; m != nil {
			t.AddRow("beta (us/sector)", m.BetaMicros)
			t.AddRow("eta (us/sector)", m.EtaMicros)
			t.AddRow("Tcdel read", time.Duration(m.TcdelReadMicros*float64(time.Microsecond)))
			t.AddRow("Tcdel write", time.Duration(m.TcdelWriteMicros*float64(time.Microsecond)))
			t.AddRow("Tmovd", time.Duration(m.TmovdMicros*float64(time.Microsecond)))
		}
		for _, st := range rep.DeviceStats {
			t.AddRow(st.Name, st.Value)
		}
		t.Render(stderr)
	}
	if spec.OutFormat == "fio" {
		// The iolog went to the output; the matching job file goes to
		// stderr so a single pipeline produces both.
		return trace.WriteFIOJob(stderr, spec.Name, spec.Out, spec.FIODevice)
	}
	return nil
}
