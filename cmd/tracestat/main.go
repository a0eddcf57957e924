// Command tracestat characterizes a block trace: request mix,
// inter-arrival distribution, per-group CDF shapes, and the fitted
// inference model — the paper's software-evaluation stage as a
// standalone analysis tool.
//
// -stream computes the summary in one pass over the streaming decoder
// with bounded memory, so corpora larger than RAM can be characterized
// (per-group classification and the model fit need the materialized
// trace and are skipped in this mode).
//
// Usage:
//
//	tracestat -in trace.csv
//	tracestat -in week.bin -informat auto -stream
//	tracegen -workload ikki | tracestat
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	in := flag.String("in", "", "input trace path (default stdin)")
	informat := flag.String("informat", "csv", `input format: "csv", "bin", "msrc", "spc", or "auto" (content sniffing)`)
	groups := flag.Bool("groups", true, "print per-group classification")
	stream := flag.Bool("stream", false,
		"one-pass streaming summary with bounded memory (skips groups and the model fit)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"decode workers for -stream file inputs (stdin always decodes sequentially)")
	flag.Parse()

	if *stream {
		if err := runStream(*in, *informat, *parallel); err != nil {
			fatal(err)
		}
		return
	}

	tr, err := readTrace(*in, *informat)
	if err != nil {
		fatal(err)
	}
	if err := tr.Validate(); err != nil {
		fatal(fmt.Errorf("input: %w", err))
	}

	t := &report.Table{Title: "trace summary", Headers: []string{"metric", "value"}}
	t.AddRow("name", tr.Name)
	t.AddRow("workload", tr.Workload)
	t.AddRow("set", tr.Set)
	t.AddRow("requests", tr.Len())
	t.AddRow("duration", tr.Duration())
	t.AddRow("total MB", fmt.Sprintf("%.1f", float64(tr.TotalBytes())/1e6))
	t.AddRow("avg request KB", fmt.Sprintf("%.2f", tr.AvgRequestBytes()/1024))
	t.AddRow("read fraction", report.Percent(tr.ReadFraction()))
	t.AddRow("sequential fraction", report.Percent(tr.SeqFraction()))
	t.AddRow("tsdev known", tr.TsdevKnown)
	t.Render(os.Stdout)

	ia := tr.InterArrivalMicros()
	if s, err := stats.Summarize(ia); err == nil {
		it := &report.Table{Title: "inter-arrival times", Headers: []string{"metric", "value"}}
		it.AddRow("mean", usDur(s.Mean))
		it.AddRow("median", usDur(s.Median))
		it.AddRow("p90", usDur(s.P90))
		it.AddRow("p99", usDur(s.P99))
		it.AddRow("max", usDur(s.Max))
		it.Render(os.Stdout)
	}

	if *groups {
		g := infer.Classify(tr)
		gt := &report.Table{
			Title:   "instruction groups (seq/op/size)",
			Headers: []string{"seq", "op", "sectors", "n", "shape", "rise"},
		}
		for _, seq := range []bool{true, false} {
			for _, op := range []trace.Op{trace.Read, trace.Write} {
				for _, grp := range g.Select(seq, op, 1) {
					shape := infer.ClassifyShape(grp.InttMicros)
					res, ok := infer.ExamineSteepness(grp.InttMicros, infer.DefaultSteepnessOptions())
					rise := "-"
					if ok {
						rise = report.FormatDuration(usDur(res.RiseMicros))
					}
					gt.AddRow(seq, op, grp.Key.Sectors, grp.N(), shape.String(), rise)
				}
			}
		}
		gt.Render(os.Stdout)
	}

	if m, err := infer.Estimate(tr, infer.EstimateOptions{}); err == nil {
		mt := &report.Table{Title: "fitted inference model", Headers: []string{"parameter", "value"}}
		mt.AddRow("beta (us/sector)", m.BetaMicros)
		mt.AddRow("eta (us/sector)", m.EtaMicros)
		mt.AddRow("Tcdel read", usDur(m.TcdelReadMicros))
		mt.AddRow("Tcdel write", usDur(m.TcdelWriteMicros))
		mt.AddRow("Tmovd", usDur(m.TmovdMicros))
		idle, async := infer.Decompose(m, tr)
		var idleTotal time.Duration
		idleCount, asyncCount := 0, 0
		for _, d := range idle {
			if d > 0 {
				idleCount++
				idleTotal += d
			}
		}
		for _, a := range async {
			if a {
				asyncCount++
			}
		}
		mt.AddRow("idle instructions", idleCount)
		mt.AddRow("total idle", idleTotal)
		mt.AddRow("async instructions", asyncCount)
		mt.Render(os.Stdout)
	} else {
		fmt.Fprintf(os.Stderr, "tracestat: model fit skipped: %v\n", err)
	}
}

func usDur(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }

// runStream prints the one-pass summary: the whole-trace metrics the
// materializing path shows, computed over the streaming decoder (with
// a bounded reorder window for the near-sorted corpora) so memory
// stays constant regardless of trace size. File inputs big enough to
// split decode on parallel workers; stdin falls back to the
// sequential decoder (no ReaderAt to segment).
func runStream(path, format string, parallel int) error {
	var (
		dec     trace.Decoder
		closeIn func()
	)
	if path != "" {
		d, resolved, closeDec, err := trace.OpenFileDecoder(path, format, parallel)
		if err != nil {
			return err
		}
		dec, format, closeIn = d, resolved, closeDec
	} else {
		r, closeStdin, err := openInput(path)
		if err != nil {
			return err
		}
		closeIn = closeStdin
		if format == "auto" {
			if format, r, err = trace.SniffFormat(r); err != nil {
				return err
			}
		}
		if dec, err = trace.NewDecoder(format, r); err != nil {
			return err
		}
	}
	defer closeIn()
	if trace.NeedsSort(format) {
		dec = trace.NewReorderDecoder(dec, engine.DefaultReorderWindow)
	}
	sum, err := trace.Summarize(dec)
	if err != nil {
		return err
	}
	if sum.Requests == 0 {
		return fmt.Errorf("input: empty trace")
	}

	t := &report.Table{Title: "trace summary (streamed)", Headers: []string{"metric", "value"}}
	t.AddRow("name", sum.Meta.Name)
	t.AddRow("workload", sum.Meta.Workload)
	t.AddRow("set", sum.Meta.Set)
	t.AddRow("format", format)
	t.AddRow("requests", sum.Requests)
	t.AddRow("duration", sum.Duration())
	t.AddRow("total MB", fmt.Sprintf("%.1f", float64(sum.TotalBytes)/1e6))
	t.AddRow("avg request KB", fmt.Sprintf("%.2f", sum.AvgRequestBytes()/1024))
	t.AddRow("read fraction", report.Percent(sum.ReadFraction()))
	t.AddRow("sequential fraction", report.Percent(sum.SeqFraction()))
	t.AddRow("tsdev known", sum.Meta.TsdevKnown)
	t.Render(os.Stdout)

	it := &report.Table{Title: "inter-arrival times (one-pass moments)", Headers: []string{"metric", "value"}}
	it.AddRow("mean", usDur(sum.IntervalMeanUS))
	it.AddRow("stddev", usDur(sum.IntervalStdUS))
	it.AddRow("max", usDur(sum.IntervalMaxUS))
	it.Render(os.Stdout)
	return nil
}

// openInput opens path (or stdin for "").
func openInput(path string) (io.Reader, func(), error) {
	if path == "" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func readTrace(path, format string) (*trace.Trace, error) {
	r, closeIn, err := openInput(path)
	if err != nil {
		return nil, err
	}
	defer closeIn()
	return trace.ReadAuto(format, r)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
	os.Exit(1)
}
