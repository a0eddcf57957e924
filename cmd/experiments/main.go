// Command experiments regenerates the paper's tables and figures on
// the simulated substrate.
//
// Usage:
//
//	experiments [-ops N] [-seed S] <exp> [<exp>...]
//	experiments all
//
// where <exp> is one of: fig1 fig3 fig5 fig7a fig7b fig9 table1 fig10
// fig11 fig12 fig13 fig14 fig15 fig16 fig17 claims.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/experiments"
)

type runner func(cfg experiments.Config, w io.Writer) error

var registry = map[string]runner{
	"fig1": func(cfg experiments.Config, w io.Writer) error {
		experiments.Fig1(cfg).Render(w)
		return nil
	},
	"fig3": func(cfg experiments.Config, w io.Writer) error {
		experiments.Fig3(cfg).Render(w)
		return nil
	},
	"fig5": func(cfg experiments.Config, w io.Writer) error {
		experiments.Fig5(cfg).Render(w)
		return nil
	},
	"fig7a": func(cfg experiments.Config, w io.Writer) error {
		experiments.Fig7a(cfg).Render(w)
		return nil
	},
	"fig7b": func(cfg experiments.Config, w io.Writer) error {
		experiments.Fig7b(cfg).Render(w)
		return nil
	},
	"fig9": func(cfg experiments.Config, w io.Writer) error {
		experiments.Fig9(cfg).Render(w)
		return nil
	},
	"table1": func(cfg experiments.Config, w io.Writer) error {
		experiments.Table1(cfg).Render(w)
		return nil
	},
	"fig10": func(cfg experiments.Config, w io.Writer) error {
		experiments.Fig10(cfg).Render(w)
		return nil
	},
	"fig11": func(cfg experiments.Config, w io.Writer) error {
		experiments.Fig11(cfg).Render(w)
		return nil
	},
	"fig12": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig12(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"fig13": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig13(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"fig14": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig14(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"fig15": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig15(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"fig16": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig16(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"fig17": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig17(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"ext-sweep": func(cfg experiments.Config, w io.Writer) error {
		experiments.FixedThSweep(cfg).Render(w)
		return nil
	},
	"ext-similarity": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Similarity(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"ext-groundtruth": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.GroundTruth(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"ext-ftl": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.FTLImpact(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"ext-cache": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.CacheImpact(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
	"claims": func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Claims(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	},
}

// order fixes the "all" sequence to the paper's presentation order.
var order = []string{
	"fig1", "fig3", "fig5", "fig7a", "fig7b", "fig9", "table1",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"fig17", "claims", "ext-sweep", "ext-similarity", "ext-groundtruth", "ext-ftl", "ext-cache",
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
		names = order
	}
	for _, name := range names {
		if _, ok := registry[name]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		if err := runOne(name, cfg, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// runOne renders a registered experiment under its header to out, and
// its wall time to timing: out stays deterministic for a given config,
// which is what the golden of `experiments all` compares.
func runOne(name string, cfg experiments.Config, out, timing io.Writer) error {
	start := time.Now()
	fmt.Fprintf(out, "--- %s ---\n", name)
	if err := registry[name](cfg, out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprintf(timing, "(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: experiments [-ops N] [-seed S] <exp> [<exp>...] | all\n\nexperiments:\n")
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
}
