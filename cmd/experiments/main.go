// Command experiments regenerates the paper's tables and figures on
// the simulated substrate.
//
// Usage:
//
//	experiments [-ops N] [-seed S] <exp> [<exp>...]
//	experiments all
//
// Run it with no arguments for the list of experiments, printed in the
// paper's presentation order — the order `all` runs them in.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

// renderer is what every experiment returns: a result that prints itself.
type renderer interface{ Render(io.Writer) }

// runner renders one experiment at cfg to w.
type runner func(cfg experiments.Config, w io.Writer) error

// plain adapts an experiment that cannot fail.
func plain[R renderer](f func(experiments.Config) R) runner {
	return func(cfg experiments.Config, w io.Writer) error {
		f(cfg).Render(w)
		return nil
	}
}

// check adapts an experiment that can fail: nothing renders on error.
func check[R renderer](f func(experiments.Config) (R, error)) runner {
	return func(cfg experiments.Config, w io.Writer) error {
		r, err := f(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
}

// sweeps memoises the corpus sweep per Config: the six experiments
// that read it share one sweep, whichever of them runs first.
var sweeps = map[experiments.Config]experiments.CorpusResult{}

// fromCorpus adapts an experiment that reads the corpus sweep: pick
// returns its part of the sweep's result.
func fromCorpus(pick func(experiments.CorpusResult) renderer) runner {
	return func(cfg experiments.Config, w io.Writer) error {
		if _, ok := sweeps[cfg]; !ok {
			r, err := experiments.Corpus(cfg)
			if err != nil {
				return err
			}
			sweeps[cfg] = r
		}
		pick(sweeps[cfg]).Render(w)
		return nil
	}
}

// table is every experiment, in the paper's presentation order.
var table = []struct {
	name string
	run  runner
}{
	{"fig1", plain(experiments.Fig1)},
	{"fig3", plain(experiments.Fig3)},
	{"fig5", plain(experiments.Fig5)},
	{"fig7a", plain(experiments.Fig7a)},
	{"fig7b", plain(experiments.Fig7b)},
	{"fig9", plain(experiments.Fig9)},
	{"table1", plain(experiments.Table1)},
	{"fig10", plain(experiments.Fig10)},
	{"fig11", plain(experiments.Fig11)},
	{"fig12", check(experiments.Fig12)},
	{"fig13", fromCorpus(func(r experiments.CorpusResult) renderer { return r.Fig13 })},
	{"fig14", fromCorpus(func(r experiments.CorpusResult) renderer { return r.Fig14 })},
	{"fig15", check(experiments.Fig15)},
	{"fig16", fromCorpus(func(r experiments.CorpusResult) renderer { return r.Fig16 })},
	{"fig17", fromCorpus(func(r experiments.CorpusResult) renderer { return r.Fig17 })},
	{"claims", fromCorpus(func(r experiments.CorpusResult) renderer { return r.Claims })},
	{"ext-sweep", plain(experiments.FixedThSweep)},
	{"ext-fidelity", fromCorpus(func(r experiments.CorpusResult) renderer { return r.Fidelity })},
	{"ext-ftl", check(experiments.FTLImpact)},
	{"ext-cache", check(experiments.CacheImpact)},
}

func main() {
	ops := flag.Int("ops", 4000, "I/O instructions per generated trace")
	seed := flag.Int64("seed", 0, "seed offset for sensitivity checks")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cfg := experiments.Config{Ops: *ops, Seed: *seed}
	names := args
	if len(args) == 1 && args[0] == "all" {
		names = nil
		for _, e := range table {
			names = append(names, e.name)
		}
	}
	for _, name := range names {
		run, ok := lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		if err := runOne(name, run, cfg, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// lookup returns the experiment called name.
func lookup(name string) (runner, bool) {
	for _, e := range table {
		if e.name == name {
			return e.run, true
		}
	}
	return nil, false
}

// runOne renders an experiment under its header to out, and its wall
// time to timing: out stays deterministic for a given config, which is
// what the golden of `experiments all` compares.
func runOne(name string, run runner, cfg experiments.Config, out, timing io.Writer) error {
	start := time.Now()
	fmt.Fprintf(out, "--- %s ---\n", name)
	if err := run(cfg, out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprintf(timing, "(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: experiments [-ops N] [-seed S] <exp> [<exp>...] | all\n\nexperiments:\n")
	for _, e := range table {
		fmt.Fprintf(os.Stderr, "  %s\n", e.name)
	}
}
