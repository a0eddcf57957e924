// Command tracestat characterizes a block trace: request mix,
// inter-arrival distribution, per-group CDF shapes, and the fitted
// inference model — the paper's software-evaluation stage as a
// standalone analysis tool.
//
// It streams the input twice and never holds the trace, only the
// groups' inter-arrival samples. Pass one folds the summary and the
// instruction groups — the pass corpus ingest runs — and the quantiles,
// group shapes and model come from it; pass two decomposes every
// request under the model for the idle and async counts. The input is
// read as a job and corpus ingest read it, through trace.OpenFileDecoder:
// a big text file decoded ahead on one goroutine when GOMAXPROCS > 1,
// records in arrival order (the near-sorted corpora, msrc and spc,
// through their format's reorder window), so the summary is a corpus sidecar's and a file a job rejects
// as unsorted is rejected here too. Stdin, or an -in that is not a
// regular file, is spooled to a temporary file for the second pass.
//
// Usage:
//
//	tracestat -in trace.csv
//	tracestat -in week.bin -informat auto
//	tracegen -workload ikki | tracestat
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/infer"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input trace path (default stdin)")
	informat := fs.String("informat", "csv", trace.Usage(trace.Input))
	groups := fs.Bool("groups", true, "print per-group classification")
	if err := fs.Parse(args); err != nil {
		return err
	}

	path, format, done, err := trace.InputFile(*in, *informat, stdin, "tracestat-stdin-*")
	if err != nil {
		return err
	}
	defer done()
	dec, _, err := trace.OpenFileDecoder(path, format)
	if err != nil {
		return err
	}
	sum, cls, err := infer.SummarizeAndClassify(dec, func(trace.Meta) bool { return true })
	dec.Close()
	if err != nil {
		return err
	}
	if err := sum.Validate(); err != nil {
		return fmt.Errorf("input: %w", err)
	}

	t := &report.Table{Title: "trace summary", Headers: []string{"metric", "value"}}
	t.AddRow("name", sum.Meta.Name)
	t.AddRow("workload", sum.Meta.Workload)
	t.AddRow("set", sum.Meta.Set)
	t.AddRow("requests", sum.Requests)
	t.AddRow("duration", sum.Duration())
	t.AddRow("total MB", fmt.Sprintf("%.1f", float64(sum.TotalBytes)/1e6))
	t.AddRow("avg request KB", fmt.Sprintf("%.2f", sum.AvgRequestBytes()/1024))
	t.AddRow("read fraction", report.Percent(sum.ReadFraction()))
	t.AddRow("sequential fraction", report.Percent(sum.SeqFraction()))
	t.AddRow("tsdev known", sum.Meta.TsdevKnown)
	t.Render(stdout)

	// The groups partition the inter-arrival gaps, and Summarize sorts
	// before it sums, so their union gives the whole trace's quantiles
	// exactly.
	g := cls.Grouping()
	ia := make([]float64, 0, sum.Requests-1)
	for _, grp := range g.Groups {
		ia = append(ia, grp.InttMicros...)
	}
	if s, err := stats.Summarize(ia); err == nil {
		it := &report.Table{Title: "inter-arrival times", Headers: []string{"metric", "value"}}
		it.AddRow("mean", usDur(s.Mean))
		it.AddRow("median", usDur(s.Median))
		it.AddRow("p90", usDur(s.P90))
		it.AddRow("p99", usDur(s.P99))
		it.AddRow("max", usDur(s.Max))
		it.Render(stdout)
	}

	if *groups {
		gt := &report.Table{
			Title:   "instruction groups (seq/op/size)",
			Headers: []string{"seq", "op", "sectors", "n", "shape", "rise"},
		}
		for _, seq := range []bool{true, false} {
			for _, op := range []trace.Op{trace.Read, trace.Write} {
				for _, grp := range g.Select(seq, op, 1) {
					shape := infer.ClassifyShape(grp.InttMicros)
					res, ok := infer.ExamineSteepness(grp.InttMicros)
					rise := "-"
					if ok {
						rise = report.FormatDuration(usDur(res.RiseMicros))
					}
					gt.AddRow(seq, op, grp.Key.Sectors, grp.N(), shape.String(), rise)
				}
			}
		}
		gt.Render(stdout)
	}

	m, err := cls.Estimate(sum.Meta.Name)
	if err != nil {
		fmt.Fprintf(stderr, "tracestat: model fit skipped: %v\n", err)
		return nil
	}
	if dec, _, err = trace.OpenFileDecoder(path, format); err != nil {
		return err
	}
	d, err := decompose(dec, m, sum.Meta.TsdevKnown)
	dec.Close()
	if err != nil {
		return err
	}
	mt := &report.Table{Title: "fitted inference model", Headers: []string{"parameter", "value"}}
	mt.AddRow("beta (us/sector)", m.BetaMicros)
	mt.AddRow("eta (us/sector)", m.EtaMicros)
	mt.AddRow("Tcdel read", usDur(m.TcdelReadMicros))
	mt.AddRow("Tcdel write", usDur(m.TcdelWriteMicros))
	mt.AddRow("Tmovd", usDur(m.TmovdMicros))
	mt.AddRow("idle instructions", d.idleCount)
	mt.AddRow("total idle", d.idleTotal)
	mt.AddRow("async instructions", d.asyncCount)
	mt.Render(stdout)
	return nil
}

func usDur(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }

// decomposition counts what infer.Decompose infers over a whole trace.
type decomposition struct {
	idleCount, asyncCount int
	idleTotal             time.Duration
}

// decompose is pass two: infer.Decompose's per-request decomposition,
// streamed. Each decoded batch is one shard, held back by its last
// request so that every shard knows the arrival after it, and carried
// into the next through a ShardContext, so the counts are the
// whole-trace ones.
func decompose(dec trace.Decoder, m *infer.Model, tsdevKnown bool) (decomposition, error) {
	var (
		d     decomposition
		st    = trace.NewSeqState()
		ctx   = infer.ShardContext{TsdevKnown: tsdevKnown}
		prev  trace.Request
		reqs  []trace.Request // the held-back request, then the batch
		seq   []bool
		idle  []time.Duration
		async []bool
	)
	shard := func(n int) {
		ctx.Seq = seq[:n]
		idle, async = slices.Grow(idle[:0], n)[:n], slices.Grow(async[:0], n)[:n]
		infer.DecomposeShardInto(idle, async, m, reqs[:n], ctx)
		for i := range n {
			if idle[i] > 0 {
				d.idleCount++
				d.idleTotal += idle[i]
			}
			if async[i] {
				d.asyncCount++
			}
		}
	}
	err := trace.ForEachBatch(dec, func(batch []trace.Request) error {
		reqs = append(reqs, batch...)
		seq = st.AppendFlags(seq, batch)
		n := len(reqs) - 1
		ctx.HasNext, ctx.NextArrival = true, reqs[n].Arrival
		shard(n)
		if n > 0 {
			prev = reqs[n-1]
			ctx.Prev, ctx.PrevSeq = &prev, seq[n-1]
		}
		reqs, seq = append(reqs[:0], reqs[n]), append(seq[:0], seq[n])
		return nil
	})
	if err != nil {
		return d, err
	}
	if len(reqs) > 0 {
		ctx.HasNext = false
		shard(len(reqs))
	}
	return d, nil
}
