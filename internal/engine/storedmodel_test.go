package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
)

// spanNames runs the tracer out and returns how often each span name
// occurs, plus the attrs of the cache-lookup span.
func spanNames(tracer *obs.Tracer) (map[string]int, map[string]int64) {
	names := map[string]int{}
	var lookup map[string]int64
	tracer.Finish()
	for _, s := range tracer.Snapshot().Spans {
		names[s.Name]++
		if s.Name == obs.JobSpanCacheLookup.String() {
			lookup = s.Attrs
		}
	}
	return names, lookup
}

// sameModel compares bit for bit: %x renders floats in exact hex.
func sameModel(a, b *infer.Model) bool {
	return fmt.Sprintf("%x", a) == fmt.Sprintf("%x", b)
}

// TestRunJobCachedStoredModel is the job half of "fit once per trace":
// a job whose method reads the input's own model — tracetracker or
// dynamic — takes the cache's model, opens no fit pass (no fit span, no
// second decoder) and still writes the sequential pipeline's bytes; a
// job on an input stored without a model fits for itself, to the same
// bytes. A spec's "reorder_window", which once put a job outside that
// rule, is an unknown key.
func TestRunJobCachedStoredModel(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "webmail.csv")
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, genOld(t, "webmail", 6000, false)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inPath, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	old := readTraceFile(t, inPath, "csv") // the reference reads what the job reads
	fit, err := infer.Estimate(old, infer.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const digest = "digest-webmail"

	reference := func(spec JobSpec) []byte {
		mk, err := DeviceFactory(spec.Normalized().Device)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := core.Reconstruct(old, mk(), core.Options{SkipPostProcess: spec.Method == "dynamic"})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		enc, err := trace.NewEncoder(spec.Normalized().OutFormat, &out, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.EncodeTrace(enc, want); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	for _, tc := range []struct {
		name    string
		spec    JobSpec
		json    string // when set, the spec as a client sends it
		workers int
		stored  *infer.Model // what the cache holds for the input
		// wantStored: the job runs on the cache's model and never fits.
		wantStored bool
		// skipBytes: the row runs on a model that is not the fit, so the
		// reference does not apply.
		skipBytes bool
	}{
		{name: "array/w1", workers: 1, stored: fit, wantStored: true},
		{name: "array/w4", workers: 4, stored: fit, wantStored: true},
		{name: "hdd/bin/w4", spec: JobSpec{Device: "hdd", OutFormat: "bin"}, workers: 4, stored: fit, wantStored: true},
		{name: "dynamic/ftl", spec: JobSpec{Method: "dynamic", Device: "ftl"}, workers: 2, stored: fit, wantStored: true},
		// The stored model is taken at its word, not re-derived: a
		// different one comes out in the report.
		{name: "trusted", workers: 2, stored: &infer.Model{TcdelReadMicros: 75, TcdelWriteMicros: 75, FlatReadMicros: -1, FlatWriteMicros: -1},
			wantStored: true, skipBytes: true},

		{name: "no-model-stored", workers: 2},
		{name: "reorder-window", json: `{"reorder_window":4096}`, workers: 2, stored: fit, wantStored: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := newMemCache(t)
			if tc.stored != nil {
				cache.models = map[string]*infer.Model{digest: tc.stored}
			}
			tracer := obs.NewTracer(tc.name, 0, obs.TraceContext{})
			reg := obs.NewRegistry()
			cfg := testConfig(tc.workers)
			cfg.Trace, cfg.Metrics = tracer, obs.NewEngineMetrics(reg)
			spec := tc.spec
			if tc.json != "" {
				if err := json.Unmarshal([]byte(tc.json), &spec); err != nil {
					t.Fatal(err)
				}
			}
			spec.In = inPath

			res, hit, err := RunJobCached(cfg, spec, digest, cache)
			if err != nil || hit {
				t.Fatalf("hit=%v err=%v", hit, err)
			}
			got, err := os.ReadFile(res.OutPath)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.skipBytes && !bytes.Equal(got, reference(spec)) {
				t.Fatal("output diverges from the sequential pipeline")
			}
			wantModel := fit
			if tc.wantStored {
				wantModel = tc.stored
			}
			if !sameModel(res.Report.Model, wantModel) {
				t.Fatalf("report model %+v, want %+v", res.Report.Model, wantModel)
			}
			if tc.wantStored && res.Report.Model == cache.models[digest] {
				t.Fatal("the job holds the cache's own model, not a copy")
			}

			names, lookup := spanNames(tracer)
			fitSpan, streamSpan := names[obs.JobSpanFit.String()], names[obs.JobSpanStream.String()]
			if streamSpan != 1 || (fitSpan == 0) != tc.wantStored {
				t.Fatalf("spans %v: want one stream span and a fit span exactly when the job fits for itself", names)
			}
			if lookup["hit"] != 0 || (lookup["model"] == 1) != tc.wantStored {
				t.Fatalf("cache-lookup attrs %v, want hit=0 and model=%v", lookup, tc.wantStored)
			}
			job, stored := modelFits(t, reg)
			if tc.wantStored && (job != 0 || stored != 1) || !tc.wantStored && (job != 1 || stored != 0) {
				t.Fatalf("engine_model_fits_total job=%v stored=%v", job, stored)
			}

			// A resubmission is a hit: nothing runs, nothing is looked up.
			lookups := cache.modelLookups
			cfg.Trace = nil
			if _, hit, err := RunJobCached(cfg, spec, digest, cache); err != nil || !hit {
				t.Fatalf("resubmission: hit=%v err=%v", hit, err)
			}
			if cache.modelLookups != lookups {
				t.Fatal("a cache hit consulted the stored model")
			}
		})
	}

	// The comparison methods run on a constant model and never ask.
	for _, method := range []string{"fixed-th", "revision", "acceleration"} {
		cache := newMemCache(t)
		cache.models = map[string]*infer.Model{digest: fit}
		if _, _, err := RunJobCached(testConfig(2), JobSpec{In: inPath, Method: method}, digest, cache); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if cache.modelLookups != 0 {
			t.Fatalf("%s consulted the stored model", method)
		}
	}
}

// TestRunJobCachedStoredModelSPC is the stored-model leg of a
// near-sorted corpus: an spc blob's stored model is the fit over its
// arrival order, which is what a job on it reads, so a cached job takes
// it (no fit span, source="stored") and writes the bytes of the same
// job fitting for itself — the sequential pipeline's over the arrival
// sort.
func TestRunJobCachedStoredModelSPC(t *testing.T) {
	inPath := filepath.Join("..", "..", "cmd", "testdata", "fixture.spc")
	spec := JobSpec{In: inPath, InFormat: "spc"}
	var perJob bytes.Buffer
	perJobRep, err := RunJobTo(testConfig(2), spec, &perJob)
	if err != nil {
		t.Fatal(err)
	}
	old := readTraceFile(t, inPath, "spc")
	mk, err := DeviceFactory("array")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Reconstruct(old, mk(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := trace.WriteCSV(&ref, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(perJob.Bytes(), ref.Bytes()) {
		t.Fatal("the per-job fit's output diverges from the sequential pipeline over the arrival sort")
	}

	dec, _, err := trace.OpenFileDecoder(inPath, "spc")
	if err != nil {
		t.Fatal(err)
	}
	stored, _, err := FitModel(dec, infer.EstimateOptions{})
	dec.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !sameModel(stored, perJobRep.Model) {
		t.Fatalf("stored fit %+v, the job's own %+v", stored, perJobRep.Model)
	}
	const digest = "digest-spc"
	cache := newMemCache(t)
	cache.models = map[string]*infer.Model{digest: stored}
	tracer := obs.NewTracer("spc", 0, obs.TraceContext{})
	reg := obs.NewRegistry()
	cfg := testConfig(2)
	cfg.Trace, cfg.Metrics = tracer, obs.NewEngineMetrics(reg)
	res, hit, err := RunJobCached(cfg, spec, digest, cache)
	if err != nil || hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	got, err := os.ReadFile(res.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, perJob.Bytes()) {
		t.Fatal("the stored-model job's bytes diverge from the per-job fit's")
	}
	names, lookup := spanNames(tracer)
	if names[obs.JobSpanFit.String()] != 0 || lookup["model"] != 1 {
		t.Fatalf("spans %v, cache-lookup %v; want no fit span and model=1", names, lookup)
	}
	if job, st := modelFits(t, reg); job != 0 || st != 1 {
		t.Fatalf("engine_model_fits_total job=%v stored=%v, want 0 and 1", job, st)
	}
}
