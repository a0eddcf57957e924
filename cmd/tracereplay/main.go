// Command tracereplay replays a block trace against one of the
// simulated devices and reports the device-side statistics: service
// latencies, queue waits, utilization, and bandwidth. It is the
// substrate equivalent of running fio --read_iolog on the evaluation
// node. The input is read as a job reads it, through
// trace.OpenFileDecoder: records in arrival order (the near-sorted
// corpora, msrc and spc, through their format's reorder window). Stdin,
// or an -in that is not a regular file, is spooled to a temporary file.
//
// Usage:
//
//	tracereplay -in new.csv -device new
//	tracereplay -in old.csv -device old -mode paced
//	tracereplay -in old.bin -informat auto -device ftl -mode closed
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "tracereplay: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracereplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input trace path (default stdin)")
	informat := fs.String("informat", "csv", trace.Usage(trace.Input))
	devName := fs.String("device", "new",
		"device: any reconstruction target — "+engine.DeviceUsage()+` — or "null"`)
	mode := fs.String("mode", "paced", `replay mode: "paced" (issue at trace arrivals) or "closed" (issue on completion)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode != "paced" && *mode != "closed" {
		return fmt.Errorf("unknown mode %q", *mode)
	}

	// The engine's registry names the devices; "null" is the one local
	// addition (it is no reconstruction target).
	var inner device.Device = &device.Null{}
	if *devName != "null" {
		mk, err := engine.DeviceFactory(*devName)
		if err != nil {
			return err
		}
		inner = mk()
	}
	dev := device.NewInstrumented(inner)

	path, format, done, err := trace.InputFile(*in, *informat, stdin, "tracereplay-stdin-*")
	if err != nil {
		return err
	}
	defer done()
	dec, _, err := trace.OpenFileDecoder(path, format)
	if err != nil {
		return err
	}
	defer dec.Close()
	// Each decoded batch is checked as trace.Validate checks a whole
	// trace before any of it reaches the device.
	acc := trace.NewSummarizer()
	var now, wall time.Duration
	err = trace.ForEachBatch(dec, func(batch []trace.Request) error {
		acc.AddBatch(batch)
		if err := acc.Summary(trace.Meta{}).Validate(); err != nil {
			return fmt.Errorf("input: %w", err)
		}
		start := time.Now()
		for _, r := range batch {
			if *mode == "paced" {
				// Issue each request at its trace arrival; the device's
				// busy state produces queue waits when the trace outpaces
				// it.
				dev.Submit(r.Arrival, r)
			} else {
				now = dev.Submit(now, r).Complete
			}
		}
		wall += time.Since(start)
		return nil
	})
	if err != nil {
		return err
	}
	sum := acc.Summary(dec.Meta())
	if err := sum.Validate(); err != nil {
		return fmt.Errorf("input: %w", err)
	}

	s := dev.Snapshot()
	t := &report.Table{
		Title:   fmt.Sprintf("replay of %s (%d requests) on %s, %s mode", sum.Meta.Name, sum.Requests, inner.Name(), *mode),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("reads", s.Reads)
	t.AddRow("writes", s.Writes)
	t.AddRow("read MB", fmt.Sprintf("%.1f", float64(s.ReadBytes)/1e6))
	t.AddRow("write MB", fmt.Sprintf("%.1f", float64(s.WriteBytes)/1e6))
	t.AddRow("mean latency", s.MeanLatency)
	t.AddRow("max latency", s.MaxLatency)
	t.AddRow("mean queue wait", s.MeanQueueWait)
	t.AddRow("utilization", fmt.Sprintf("%.2f", s.Utilization))
	if span := sum.Duration(); span > 0 {
		gbps := float64(s.ReadBytes+s.WriteBytes) / span.Seconds() / 1e9
		t.AddRow("offered bandwidth GB/s", fmt.Sprintf("%.3f", gbps))
	}
	t.AddRow("simulation wall time", wall.Round(time.Millisecond))
	t.Render(stdout)
	return nil
}
