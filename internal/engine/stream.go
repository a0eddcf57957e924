package engine

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrModelRequired is returned by ReconstructStream when the input
// needs the inference model (no recorded latencies) but none was
// supplied. Fit one with FitModel, or run a job, which orchestrates the
// two passes.
var ErrModelRequired = errors.New("engine: input requires an inference model; fit one with FitModel")

// FitModel runs the global model fit over a request stream with the
// incremental classifier, returning the fitted model and the number of
// requests seen. This is pass one of a streaming reconstruction for
// corpora without recorded latencies — unless the job's input came from
// a corpus store that fitted it at ingest (ResultCache.FittedModel) and
// the job would fit exactly that, in which case the job is handed the
// stored model and this pass, with its second decode of the
// input, does not run. The classifier retains each inter-arrival as 4
// bytes of integer nanoseconds (8 more for a gap past 2³² ns) — far
// below materializing the trace, but still O(n); truly bounded
// streaming is only possible for Tsdev-known corpora, which skip this
// pass. The options parameter
// exists only for the benchmark (see infer.EstimateOptions).
func FitModel(dec trace.Decoder, _ infer.EstimateOptions) (*infer.Model, int, error) {
	c := infer.NewStreamClassifier()
	err := trace.ForEachBatch(dec, func(batch []trace.Request) error {
		c.AddBatch(batch)
		return nil
	})
	if err != nil {
		dec.Close()
		return nil, c.N(), err
	}
	m, err := c.Estimate(dec.Meta().Name)
	return m, c.N(), err
}

// ReconstructStream runs the sharded reconstruction over a request
// stream, writing the reconstructed trace to enc (Begin through Close;
// the underlying writer stays open) with bounded memory: at most
// O(Workers · MaxShardRequests) requests are resident. (Fitting the
// model beforehand has its own footprint — see FitModel.) It runs the
// tracetracker row of the method table, like core.Reconstruct. m is the
// pre-fitted inference model; it may be nil when the stream records
// latencies (Tsdev-known), and is ignored on that recorded path just
// like the sequential pipeline ignores it.
//
// The input must be non-decreasing in arrival (trace.OpenFileDecoder
// reads near-sorted corpora in arrival order) with non-zero request
// sizes; the planner rejects violations. When enc is a
// trace.ShardEncoder the workers render the output bytes and only
// WriteRaw is called on it; any other encoder is written record by
// record from the merge.
//
// On any error the decoder is closed, so an abandoned read-ahead decode
// never leaks its goroutine.
func (e *Engine) ReconstructStream(dec trace.Decoder, enc trace.Encoder, m *infer.Model) (*Report, error) {
	return e.reconstructStream(dec, enc, m, methods[0])
}

// reconstructStream is ReconstructStream under any graph row of the
// method table: the row decides whether recorded latencies drive the
// idle rule, whether post-processing runs and whether the report
// carries m.
func (e *Engine) reconstructStream(dec trace.Decoder, enc trace.Encoder, m *infer.Model, meth method) (_ *Report, err error) {
	defer func() {
		if err != nil {
			dec.Close()
		}
	}()
	// The first run completes the metadata, which decides the path.
	first, err := dec.Read(make([]trace.Request, 1))
	if err == io.EOF {
		// As trace.Validate has it: an empty input is a broken corpus,
		// not a successful reconstruction.
		return nil, fmt.Errorf("input: %w", trace.ErrNoRequest)
	}
	if err != nil {
		return nil, err
	}
	meta := dec.Meta()
	outMeta := meta
	outMeta.TsdevKnown = true // emulation records new device times

	useRecorded := meta.TsdevKnown && meth.ownModel
	if useRecorded {
		// Parity with the sequential pipeline: the recorded-latency
		// path never consults a model.
		m = nil
	} else if m == nil {
		return nil, ErrModelRequired
	}

	pool := &bufPool{}
	planner := newStreamPlanner(e.cfg, pool)
	produce := func(submit func(epoch) error) error {
		submitShard := func(s shard) error { return submit(epoch{shard: s}) }
		if err := planner.addBatch(first, submitShard); err != nil {
			return err
		}
		// Fused ingest: with a read-ahead decoder, its goroutine fills
		// batches concurrently with this planner loop and with the
		// epoch workers downstream, so decode and emulation overlap
		// end-to-end and the planner consumes pre-decoded batches
		// without copying them into its own buffer first.
		err := trace.ForEachBatch(dec, func(batch []trace.Request) error {
			return planner.addBatch(batch, submitShard)
		})
		if err != nil {
			return err
		}
		if last := planner.finish(); last != nil {
			return submitShard(*last)
		}
		return nil
	}

	// The stream span is the pass itself: the plan and epoch spans hang
	// off it.
	ssp := e.cfg.Trace.Start(e.cfg.Trace.Root(), obs.JobSpanStream)
	defer ssp.End()
	r := &run{cfg: e.cfg, m: m, useRecorded: useRecorded, post: meth.post, enc: enc, meta: outMeta, pool: pool, root: ssp}
	r.rep.Workers = e.cfg.Workers
	if meth.ownModel {
		r.rep.Model = m
	}
	if err := r.execute(e.cfg.Device(), produce); err != nil {
		return nil, err
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	return &r.rep, nil
}

// fitModelFromPath is pass one of a job whose method reads the input's
// own model: a cheap probe of the first record decides whether the
// corpus needs inference, and if so the input is opened in arrival
// order and fitted with FitModel. Pass two streams the sharded
// reconstruction. Both passes decode a large text input ahead on one
// goroutine when GOMAXPROCS > 1 (trace.OpenFileDecoder).
func (e *Engine) fitModelFromPath(inPath, informat string) (*infer.Model, error) {
	// The probe only needs the header metadata, which doesn't depend
	// on record order, so trace.FileMeta reads the first record in file
	// order.
	meta, err := trace.FileMeta(inPath, informat)
	if err == io.EOF {
		return nil, nil // empty input: pass two reports ErrNoRequest
	}
	if err != nil {
		return nil, err
	}
	if meta.TsdevKnown {
		return nil, nil
	}
	dec, _, err := trace.OpenFileDecoder(inPath, informat)
	if err != nil {
		return nil, err
	}
	defer dec.Close()
	fsp := e.cfg.Trace.Start(e.cfg.Trace.Root(), obs.JobSpanFit)
	defer fsp.End()
	e.cfg.Metrics.ModelFit(false)
	m, _, err := FitModel(dec, infer.EstimateOptions{})
	return m, err
}
