// Command tracecorpus manages a content-addressed trace corpus
// (internal/corpus) offline — the same store tracetrackerd serves, so
// fleets of traces can be ingested, inspected and garbage-collected
// without a running daemon.
//
// Usage:
//
//	tracecorpus -data DIR add [-format auto] FILE...   ingest traces (dedup by digest)
//	tracecorpus -data DIR add -                        ingest stdin
//	tracecorpus -data DIR ls                           catalogue table
//	tracecorpus -data DIR info DIGEST                  full entry JSON (unique prefix ok)
//	tracecorpus -data DIR get DIGEST [-o FILE]         emit the stored bytes
//	tracecorpus -data DIR gc                           drop staging leftovers, broken
//	                                                   pairs, and results whose input
//	                                                   trace is gone
//
// Run gc only while no daemon is ingesting into the same directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "tracecorpus: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	global := flag.NewFlagSet("tracecorpus", flag.ContinueOnError)
	data := global.String("data", "", "corpus store root directory (required)")
	global.Usage = func() {
		fmt.Fprintln(global.Output(), "usage: tracecorpus -data DIR {add|ls|info|get|gc} [args]")
		global.PrintDefaults()
	}
	if err := global.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	if global.NArg() == 0 {
		return fmt.Errorf("missing subcommand: add, ls, info, get or gc")
	}
	store, err := corpus.Open(*data)
	if err != nil {
		return err
	}
	cmd, rest := global.Arg(0), global.Args()[1:]
	switch cmd {
	case "add":
		return cmdAdd(store, rest, stdout)
	case "ls":
		return cmdLs(store, stdout)
	case "info":
		return cmdInfo(store, rest, stdout)
	case "get":
		return cmdGet(store, rest, stdout)
	case "gc":
		return cmdGC(store, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func cmdAdd(store *corpus.Store, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("add", flag.ContinueOnError)
	format := fs.String("format", "auto", trace.Usage(trace.Input))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("add needs at least one trace file (or - for stdin)")
	}
	for _, path := range fs.Args() {
		var (
			e       corpus.Entry
			created bool
			err     error
		)
		if path == "-" {
			e, created, err = store.Ingest(os.Stdin, *format)
		} else {
			e, created, err = store.IngestFile(path, *format)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		verb := "added"
		if !created {
			verb = "exists"
		}
		fmt.Fprintf(stdout, "%s %s %s (%s, %d requests, %.1f MB)\n",
			verb, e.Digest, path, e.Format, e.Requests, float64(e.Size)/1e6)
	}
	return nil
}

func cmdLs(store *corpus.Store, stdout io.Writer) error {
	entries := store.Entries()
	if len(entries) == 0 {
		fmt.Fprintln(stdout, "corpus is empty")
		return nil
	}
	t := &report.Table{
		Title:   fmt.Sprintf("corpus (%d traces)", len(entries)),
		Headers: []string{"digest", "format", "requests", "duration", "MB", "read", "seq", "tsdev", "name"},
	}
	for _, e := range entries {
		t.AddRow(e.Digest[:12], e.Format, e.Requests,
			report.FormatDuration(e.Duration),
			fmt.Sprintf("%.1f", float64(e.Size)/1e6),
			report.Percent(e.ReadFraction), report.Percent(e.SeqFraction),
			e.TsdevKnown, e.Name)
	}
	t.Render(stdout)
	return nil
}

func cmdInfo(store *corpus.Store, args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("info needs exactly one digest")
	}
	e, err := store.Resolve(args[0])
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

func cmdGet(store *corpus.Store, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("get needs exactly one digest")
	}
	rc, _, err := store.OpenBlob(fs.Arg(0))
	if err != nil {
		return err
	}
	defer rc.Close()
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.Copy(w, rc)
	return err
}

func cmdGC(store *corpus.Store, stdout io.Writer) error {
	start := time.Now()
	st, err := store.GC()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "gc: removed %d staging files, %d orphaned results, %d broken objects, %d orphaned renderings in %v\n",
		st.TmpRemoved, st.ResultsRemoved, st.ObjectsRemoved, st.RendersRemoved, time.Since(start).Round(time.Millisecond))
	return nil
}
