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
// needs the inference model (no recorded latencies, or ForceInference)
// but none was supplied. Fit one with FitModel, or use ReconstructPath
// which orchestrates the two passes.
var ErrModelRequired = errors.New("engine: input requires an inference model; fit one with FitModel")

// FitModel runs the global model fit over a request stream with the
// incremental classifier, returning the fitted model and the number of
// requests seen. This is pass one of a streaming reconstruction for
// corpora without recorded latencies — unless the job's input came from
// a corpus store that fitted it at ingest (ResultCache.FittedModel) and
// the job would fit exactly that, in which case ReconstructPath is
// handed the stored model and this pass, with its second decode of the
// input, does not run. The classifier retains one inter-arrival sample
// and its group tag (12 bytes) per request — far below materializing
// the trace, but still O(n); truly bounded streaming is only possible
// for Tsdev-known corpora, which skip this pass. The options parameter
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
// model beforehand has its own footprint — see FitModel.) m is the
// pre-fitted inference model; it may be nil when the stream records
// latencies (Tsdev-known) and ForceInference is off, and is ignored on
// that recorded path just like the sequential pipeline ignores it.
//
// The input must be non-decreasing in arrival (wrap near-sorted
// corpora in a trace.ReorderDecoder) with non-zero request sizes; the
// planner rejects violations. When enc is a trace.ShardEncoder the
// workers render the output bytes and only WriteRaw is called on it; any
// other encoder is written record by record from the merge.
//
// On any error the decoder is closed, so an abandoned parallel decode
// never leaks its worker goroutines.
func (e *Engine) ReconstructStream(dec trace.Decoder, enc trace.Encoder, m *infer.Model) (*Report, error) {
	rep, err := e.reconstructStream(dec, enc, m)
	if err != nil {
		dec.Close()
		return nil, err
	}
	return rep, nil
}

func (e *Engine) reconstructStream(dec trace.Decoder, enc trace.Encoder, m *infer.Model) (*Report, error) {
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

	useRecorded := meta.TsdevKnown && !e.cfg.Core.ForceInference
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
		// Fused parallel ingest: with a parallel decoder, its workers
		// fill batches concurrently with this planner loop and with the
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
	ssp := e.cfg.Trace.Start(e.cfg.Trace.Root(), obs.JobSpanNames[obs.JobSpanStream])
	defer ssp.End()
	r := &run{cfg: e.cfg, m: m, useRecorded: useRecorded, enc: enc, meta: outMeta, pool: pool, root: ssp}
	r.rep.Model, r.rep.Workers = m, e.cfg.Workers
	if err := r.execute(e.cfg.Device(), produce); err != nil {
		return nil, err
	}
	return &r.rep, enc.Close()
}

// ReconstructPath orchestrates a whole streaming reconstruction from
// an input file: pass one fits the model if the corpus needs it, pass
// two streams the sharded reconstruction into enc. reorderWindow
// (<= 1 = none) inserts a bounded arrival-sort window, which the
// near-sorted event-traced corpora (msrc) need. Both passes decode on
// the engine's worker count via the segmented parallel decoder when
// the input file is large enough to split. A non-nil fitted is the
// model pass one would produce, already in hand (RunJobCached read it
// from the store): pass one and its decoder are skipped.
func (e *Engine) ReconstructPath(inPath, informat string, reorderWindow int, enc trace.Encoder, fitted *infer.Model) (*Report, error) {
	m := fitted
	if m != nil {
		e.cfg.Metrics.ModelFit(true)
	} else {
		var err error
		if m, err = e.fitModelFromPath(inPath, informat, reorderWindow); err != nil {
			return nil, err
		}
	}
	dec, err := openDecoder(inPath, informat, reorderWindow, e.cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer dec.Close()
	return e.ReconstructStream(dec, enc, m)
}

// fitModelFromPath is pass one of ReconstructPath: a cheap probe of
// the first record decides whether the corpus needs inference, and if
// so the input is re-opened and fitted with FitModel.
func (e *Engine) fitModelFromPath(inPath, informat string, reorderWindow int) (*infer.Model, error) {
	// The probe only needs the header metadata, which doesn't depend
	// on record order — skip the reorder window (so it doesn't buffer
	// a whole window of requests to answer a one-record question) and
	// the parallel decoder (one record never justifies a fan-out).
	probe, err := openDecoder(inPath, informat, 0, 1)
	if err != nil {
		return nil, err
	}
	_, err = probe.Read(make([]trace.Request, 1))
	needModel := !probe.Meta().TsdevKnown || e.cfg.Core.ForceInference
	probe.Close()
	if err == io.EOF {
		return nil, nil // empty input: pass two reports ErrNoRequest
	}
	if err != nil {
		return nil, err
	}
	if !needModel {
		return nil, nil
	}
	dec, err := openDecoder(inPath, informat, reorderWindow, e.cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer dec.Close()
	fsp := e.cfg.Trace.Start(e.cfg.Trace.Root(), obs.JobSpanNames[obs.JobSpanFit])
	defer fsp.End()
	e.cfg.Metrics.ModelFit(false)
	m, _, err := FitModel(dec, infer.EstimateOptions{})
	return m, err
}

// openDecoder opens a format decoder over a file — segmented parallel
// when workers > 1 and the file is big enough to split — optionally
// wrapped in a reorder window. Closing it closes the file.
func openDecoder(path, format string, reorderWindow, workers int) (trace.Decoder, error) {
	dec, _, err := trace.OpenFileDecoder(path, format, workers)
	if err != nil {
		return nil, err
	}
	if reorderWindow > 1 {
		dec = trace.NewReorderDecoder(dec, reorderWindow)
	}
	return dec, nil
}
