// Command tracegen synthesizes block traces for the Table I workload
// families by executing the application model against a simulated
// system: the OLD (HDD, the default) or NEW (all-flash-array) one, or
// any other target of the engine's device registry.
//
// Usage:
//
//	tracegen -workload ikki -ops 100000 -out ikki.csv
//	tracegen -workload MSNFS -device new -format bin -out msnfs.bin
//	tracegen -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload family (see -list)")
	ops := fs.Int("ops", 50000, "number of I/O instructions")
	seed := fs.Int64("seed", 1, "generation seed")
	idx := fs.Int("index", 0, "trace index within the family (derives the seed with -seed as offset)")
	dev := fs.String("device", "old", "collection device, any reconstruction target: "+engine.DeviceUsage())
	format := fs.String("format", "csv", trace.Usage(trace.Generated))
	out := fs.String("out", "", "output path (default stdout)")
	list := fs.Bool("list", false, "list workload families and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(stdout, "%-14s %-5s %8s %8s %8s\n", "workload", "set", "#traces", "avgKB", "totalGB")
		for _, p := range workload.Profiles() {
			fmt.Fprintf(stdout, "%-14s %-5s %8d %8.2f %8.1f\n", p.Name, p.Set, p.NumTraces, p.AvgKB, p.TotalGB)
		}
		x := workload.Exchange()
		fmt.Fprintf(stdout, "%-14s %-5s %8s %8.2f %8.1f (extra, Figs 1/3)\n", x.Name, x.Set, "-", x.AvgKB, x.TotalGB)
		return nil
	}
	p, ok := workload.Lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (try -list)", *name)
	}
	mk, err := engine.DeviceFactory(*dev)
	if err != nil {
		return err
	}
	d := mk()

	tr := workload.Collect(p, workload.GenOptions{
		Ops:  *ops,
		Seed: workload.TraceSeed(p.Name, *idx) ^ *seed,
	}, d).Trace
	tr.Name = fmt.Sprintf("%s-%02d", p.Name, *idx)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteFormat(*format, w, tr); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tracegen: wrote %d requests (%s, %s) spanning %v\n",
		tr.Len(), p.Name, d.Name(), tr.Duration())
	return nil
}
