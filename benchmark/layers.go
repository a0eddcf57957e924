package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// fakeDigest is a well-formed input digest that names no real blob:
// RunJobCached keys its cache on the digest it is told, so a fresh one
// forces a miss over the same input file.
func fakeDigest(i int) string { return fmt.Sprintf("%064x", i+1) }

// mallocs reads the process's cumulative allocation counters.
func mallocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// tracedPass times the calls into each layer's public functions on
// base 0 of the workload, in process and without a daemon, each call
// under a span. It returns the per-layer metrics those spans yield;
// the self times that need the timed rounds are closed by layerMetrics.
func tracedPass(cfg config, w workloadSpec, b *base, rec *recorder) (metrics, error) {
	m := metrics{}
	putMS := func(name string, d time.Duration) { m.put(name+"_ms", "ms", ms(d)) }
	old, n := b.old, float64(b.old.Len())
	mk, err := engine.DeviceFactory(w.Device)
	if err != nil {
		return nil, err
	}
	blob := b.input.named(nil, namePlaceholder)
	P := cfg.parallel

	decomp := rec.start(0, "decomp")

	// --- trace: the codecs, input format in, output format out.
	d, err := rec.timed(decomp, "trace.decode", nil, func() error {
		dec, err := trace.NewDecoder(w.InFormat, bytes.NewReader(blob))
		if err != nil {
			return err
		}
		var batch [512]trace.Request
		for {
			if _, err := trace.DecodeBatch(dec, batch[:]); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	decode := d
	putMS("trace.decode", d)
	d, err = rec.timed(decomp, "trace.decode_par", nil, func() error {
		dec := trace.NewParallelDecoder(bytes.NewReader(blob), int64(len(blob)), w.InFormat, P)
		defer dec.Close()
		for {
			if _, err := dec.ReadBatch(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	putMS("trace.decode_par", d)
	d, err = rec.timed(decomp, "trace.summarize", nil, func() error {
		dec, err := trace.NewDecoder(w.InFormat, bytes.NewReader(blob))
		if err != nil {
			return err
		}
		_, err = trace.Summarize(dec)
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("trace.summarize", d)

	// --- infer: model fit (inference path only) and decomposition.
	var model *infer.Model
	_, useRecorded, err := core.PrepareModel(old, core.Options{})
	if err != nil {
		return nil, err
	}
	estimateCalls := 0
	d = 0
	if !useRecorded {
		estimateCalls = 1
		d, err = rec.timed(decomp, "infer.estimate", nil, func() error {
			model, err = infer.Estimate(old, infer.EstimateOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	putMS("infer.estimate", d)
	m.put("infer.estimate_calls", "count", float64(estimateCalls))
	seq := old.SeqFlags()
	var idle []time.Duration
	var async []bool
	d, _ = rec.timed(decomp, "infer.decompose", nil, func() error {
		idle, async = infer.DecomposeShard(model, old.Requests, infer.ShardContext{TsdevKnown: useRecorded, Seq: seq})
		return nil
	})
	putMS("infer.decompose", d)
	m.put("infer.idle_count", "count", float64(b.refRep.IdleCount))
	m.put("infer.async_count", "count", float64(b.refRep.AsyncCount))
	score := verify.Evaluate(b.thinks, idle)
	m.put("infer.detect_tp_pct", "%", score.DetectionTP()*100)
	m.put("infer.detect_fp_pct", "%", score.DetectionFP()*100)
	m.put("infer.len_tp_secured_pct", "%", score.LenTPSecured()*100)

	// --- replay and device: the emulation loop and the bare model.
	var dev device.Device
	fresh := func() { dev = mk() }
	var emulated *trace.Trace
	d, _ = rec.timed(decomp, "replay.emulate", fresh, func() error {
		emulated = replay.Emulate(old, dev, idle)
		return nil
	})
	emulate := d
	putMS("replay.emulate", d)
	probe := mk()
	pipelined := !device.IsShardSafe(probe) && device.IsStateful(probe)
	d = 0
	if pipelined {
		d, _ = rec.timed(decomp, "replay.service", func() { fresh(); dev.Reset() }, func() error {
			replay.ServiceShard(old.Requests, dev, idle, async, 0)
			return nil
		})
	}
	putMS("replay.service", d)
	var submitAllocs uint64
	d, _ = rec.timed(decomp, "device.submit", func() { fresh(); dev.Reset() }, func() error {
		a0, _ := mallocs()
		now := time.Duration(0)
		for i, r := range old.Requests {
			now += idle[i]
			now = dev.Submit(now, r).Complete
		}
		a1, _ := mallocs()
		submitAllocs = a1 - a0
		return nil
	})
	m.put("device.submit_ns_per_req", "ns", float64(d)/n)
	m.put("device.submit_allocs_per_req", "count", float64(submitAllocs)/n)
	putMS("replay.emulate.self", emulate-d)

	// dev has now serviced the whole trace: snapshot that state.
	var snapUS, restoreUS, snapBytes float64
	if st, ok := dev.(device.Stateful); ok && device.IsStateful(dev) {
		// Reading the allocation counters stops the world, which would
		// swamp a microsecond-scale snapshot: size one outside the spans.
		_, b0 := mallocs()
		state := st.Snapshot()
		_, b1 := mallocs()
		d, _ = rec.timed(decomp, "device.snapshot", nil, func() error {
			state = st.Snapshot()
			return nil
		})
		snapUS, snapBytes = us(d), float64(b1-b0)
		// Restore adopts the snapshot's storage, so each repetition
		// restores a snapshot of its own into a device of its own.
		var into device.Stateful
		d, _ = rec.timed(decomp, "device.restore", func() { state, into = st.Snapshot(), mk().(device.Stateful) }, func() error {
			into.Restore(state)
			return nil
		})
		restoreUS = us(d)
	}
	m.put("device.snapshot_us", "us", snapUS)
	m.put("device.restore_us", "us", restoreUS)
	m.put("device.snapshot_alloc_bytes", "B", snapBytes)

	// --- core: the serial reference and the post-processing pass.
	d, err = rec.timed(decomp, "core.reconstruct", fresh, func() error {
		_, _, err := core.Reconstruct(old, dev, core.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("core.reconstruct", d)
	var scratch []trace.Request
	d, _ = rec.timed(decomp, "core.postprocess", func() { scratch = append(scratch[:0], emulated.Requests...) }, func() error {
		core.PostProcessShard(scratch, async, 0)
		return nil
	})
	putMS("core.postprocess", d)

	d, err = rec.timed(decomp, "trace.encode", nil, func() error {
		enc, err := trace.NewEncoder(w.OutFormat, io.Discard, "")
		if err != nil {
			return err
		}
		return trace.EncodeTrace(enc, b.out)
	})
	if err != nil {
		return nil, err
	}
	encode := d
	putMS("trace.encode", d)
	m.put("trace.in_bytes", "B", float64(len(b.input.data)))
	m.put("trace.out_bytes", "B", float64(len(b.expected.data)))

	// --- corpus: result store, against a real store on the data
	// filesystem, configured as the daemon configures its own.
	dir, err := os.MkdirTemp(cfg.workdir, "traced-")
	if err != nil {
		return nil, err
	}
	defer onExit(func() { os.RemoveAll(dir) })()
	store, err := corpus.Open(dir)
	if err != nil {
		return nil, err
	}
	store.SetParallel(P)
	key := 0
	d, err = rec.timed(decomp, "corpus.store_result", func() { key++ }, func() error {
		_, err := store.StoreResult(fakeDigest(key), fakeDigest(0), nil, func(w io.Writer) error {
			_, err := w.Write(b.expected.data)
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	storeResult := d
	putMS("corpus.store_result", d)
	rec.end(decomp)

	// --- engine: the parallel executors over the same trace.
	eng := rec.start(0, "engine")
	engP := engine.New(engine.Config{Workers: P, Device: mk})
	var rep *core.Report
	var objs, size uint64
	dP, err := rec.timed(eng, "engine.reconstruct", nil, func() error {
		a0, b0 := mallocs()
		_, r, err := engP.Reconstruct(old)
		a1, b1 := mallocs()
		rep, objs, size = r, a1-a0, b1-b0
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("engine.reconstruct", dP)
	m.put("engine.shards", "count", float64(rep.Shards))
	m.put("engine.allocs_per_req", "count", float64(objs)/n)
	m.put("engine.alloc_bytes_per_req", "B", float64(size)/n)
	eng1 := engine.New(engine.Config{Workers: 1, Device: mk})
	d1, err := rec.timed(eng, "engine.reconstruct_w1", nil, func() error {
		_, _, err := eng1.Reconstruct(old)
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("engine.reconstruct_w1", d1)
	m.put("engine.speedup", "x", float64(d1)/float64(dP))
	// A Tracer records one job, so the hooked engine gets a new one per
	// repetition.
	hooked := engine.Config{Workers: P, Device: mk, Metrics: obs.NewEngineMetrics(obs.NewRegistry())}
	dH, err := rec.timed(eng, "engine.reconstruct_hooked", func() {
		hooked.Trace = obs.NewTracer("benchmark", 0, obs.TraceContext{})
	}, func() error {
		_, _, err := engine.New(hooked).Reconstruct(old)
		hooked.Trace.Finish()
		return err
	})
	if err != nil {
		return nil, err
	}
	m.put("obs.hooks_overhead_pct", "%", (float64(dH)/float64(dP)-1)*100)
	d, err = rec.timed(eng, "engine.stream", nil, func() error {
		var fit *infer.Model
		if !useRecorded {
			// Pass one of a streaming job on the inference path.
			dec, err := trace.NewDecoder(w.InFormat, bytes.NewReader(blob))
			if err != nil {
				return err
			}
			if fit, _, err = engine.FitModel(dec, infer.EstimateOptions{}); err != nil {
				return err
			}
		}
		dec, err := trace.NewDecoder(w.InFormat, bytes.NewReader(blob))
		if err != nil {
			return err
		}
		enc, err := trace.NewEncoder(w.OutFormat, io.Discard, "")
		if err != nil {
			return err
		}
		_, err = engP.ReconstructStream(dec, enc, fit)
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("engine.stream", d)
	rec.end(eng)

	// --- cycle: what one daemon cycle calls, in the daemon's order —
	// first the cold path (land the blob, run the job, read the
	// result), then the hot path over the same blob and key.
	cycle := rec.start(0, "cycle")
	spec := engine.JobSpec{InFormat: w.InFormat, OutFormat: w.OutFormat, Device: w.Device}
	jobCfg := engine.Config{Workers: P}
	var upload []byte
	var entry corpus.Entry
	seqNo := 0
	dIngest, err := rec.timed(cycle, "corpus.ingest", func() {
		seqNo++
		upload = b.input.named(upload, cycleName(0, 9, seqNo))
	}, func() error {
		e, created, err := store.IngestAs(bytes.NewReader(upload), "", "")
		if err == nil && !created {
			err = fmt.Errorf("ingest of a new blob answered created=false")
		}
		entry = e
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("corpus.ingest", dIngest)
	dDedup, err := rec.timed(cycle, "corpus.ingest_dedup", nil, func() error {
		_, created, err := store.IngestAs(bytes.NewReader(upload), "", "")
		if err == nil && created {
			err = fmt.Errorf("ingest of a stored blob answered created=true")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("corpus.ingest_dedup", dDedup)
	if spec.In, err = store.BlobPath(entry.Digest); err != nil {
		return nil, err
	}
	miss := 1000 // clear of the store_result keys above
	var lastKey string
	dMiss, err := rec.timed(cycle, "engine.run_job_cached_miss", func() { miss++ }, func() error {
		_, hit, err := engine.RunJobCached(jobCfg, spec, fakeDigest(miss), store)
		if err == nil && hit {
			err = fmt.Errorf("first run of a key answered as a cache hit")
		}
		lastKey = engine.CacheKey(fakeDigest(miss), spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("engine.run_job_cached_miss", dMiss)
	dHit, err := rec.timed(cycle, "engine.run_job_cached_hit", nil, func() error {
		_, hit, err := engine.RunJobCached(jobCfg, spec, fakeDigest(miss), store)
		if err == nil && !hit {
			err = fmt.Errorf("second run of a key missed the cache")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("engine.run_job_cached_hit", dHit)
	// The job's parts, as RunJobCached runs them on a miss.
	putMS("engine.run_job.self", dMiss-(decode+dP+encode+storeResult))
	d, _ = rec.timed(cycle, "corpus.lookup_result", nil, func() error {
		if _, _, ok := store.LookupResult(lastKey); !ok {
			return fmt.Errorf("stored result not found")
		}
		return nil
	})
	m.put("corpus.lookup_result_us", "us", us(d))
	dOpen, err := rec.timed(cycle, "corpus.open_result", nil, func() error {
		f, _, err := store.OpenResult(lastKey)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(io.Discard, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	putMS("corpus.open_result", dOpen)
	rec.end(cycle)

	// --- corpus index: the same small ingest into an empty store and
	// into one that already holds cfg.indexEntries entries.
	small := rec.start(0, "corpus.index")
	n0, n512, err := smallIngest(cfg, rec, small)
	if err != nil {
		return nil, err
	}
	m.put("corpus.ingest_small_n0_us", "us", us(n0))
	m.put("corpus.ingest_small_n512_us", "us", us(n512))
	rec.end(small)
	return m, nil
}

// smallIngest times the ingest of a 1k-request blob into an empty
// store and into one holding cfg.indexEntries entries (512 unless the
// self-test shrinks it; the n512 names carry the default); the
// difference is the per-ingest index rewrite.
func smallIngest(cfg config, rec *recorder, parent int) (empty, full time.Duration, err error) {
	p, _ := workload.Lookup("MSNFS")
	app := workload.Generate(p, workload.GenOptions{Ops: 1000, Seed: workload.TraceSeed("benchmark/small", 0) ^ cfg.seed})
	tr := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	tr.Name = namePlaceholder
	data, err := encodeTrace(tr, "bin")
	if err != nil {
		return 0, 0, err
	}
	tmpl, err := newTemplate(data)
	if err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "small-")
	if err != nil {
		return 0, 0, err
	}
	defer onExit(func() { os.RemoveAll(dir) })()
	store, err := corpus.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	var blob []byte
	seq := 0
	ingest := func() error {
		seq++
		blob = tmpl.named(blob, cycleName(0, 8, seq))
		_, _, err := store.IngestAs(bytes.NewReader(blob), "bin", "")
		return err
	}
	// Emptying the store between repetitions would time the removal,
	// so "empty" means the first rec.reps ingests: the catalogue holds
	// at most reps-1 entries.
	if empty, err = rec.timed(parent, "corpus.ingest_small_n0", nil, ingest); err != nil {
		return 0, 0, err
	}
	for store.Len() < cfg.indexEntries {
		if err := ingest(); err != nil {
			return 0, 0, err
		}
	}
	full, err = rec.timed(parent, "corpus.ingest_small_n512", nil, ingest)
	return empty, full, err
}

// layerMetrics joins the traced pass with the timed rounds: the
// daemon.* rows and the two self times that close the budget between
// what a client sees and what the layers below the HTTP surface cost.
func layerMetrics(w workloadSpec, traced, e2e, daemonRows metrics) metrics {
	m := metrics{}
	for k, v := range traced {
		m[k] = v
	}
	for k, v := range daemonRows {
		m[k] = v
	}
	ingest, job := "corpus.ingest_ms", "engine.run_job_cached_miss_ms"
	if w.Hot {
		ingest, job = "corpus.ingest_dedup_ms", "engine.run_job_cached_hit_ms"
	}
	m.put("daemon.upload.self_ms", "ms", m["daemon.upload_p50_ms"].Value-m[ingest].Value)
	m.put("daemon.result.self_ms", "ms", e2e["result_p50_ms"].Value-m[job].Value-m["corpus.open_result_ms"].Value)
	return m
}
