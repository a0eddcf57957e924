package engine

import (
	"bytes"
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
	for _, s := range tracer.Finish().Spans {
		names[s.Name]++
		if s.Name == obs.JobSpanNames[obs.JobSpanCacheLookup] {
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
// a job whose own fit would be the stored one — tracetracker or
// dynamic, no reorder window — takes the cache's model, opens no fit
// pass (no fit span, no second decoder) and still writes the sequential
// pipeline's bytes; every other job fits for itself exactly as before,
// to the same bytes.
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
	old := readTraceFile(t, inPath, "csv") // csv quantizes: the reference decodes it too
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
		name   string
		spec   JobSpec
		opts   core.Options
		stored *infer.Model // what the cache holds for the input
		// wantStored: the job runs on the cache's model and never fits.
		wantStored bool
		// skipBytes: the row runs on a model that is not the fit, so the
		// reference does not apply.
		skipBytes bool
	}{
		{name: "array/w1", spec: JobSpec{Parallel: 1}, stored: fit, wantStored: true},
		{name: "array/w4", spec: JobSpec{Parallel: 4}, stored: fit, wantStored: true},
		{name: "hdd/bin/w4", spec: JobSpec{Device: "hdd", OutFormat: "bin", Parallel: 4}, stored: fit, wantStored: true},
		{name: "dynamic/ftl", spec: JobSpec{Method: "dynamic", Device: "ftl", Parallel: 2}, stored: fit, wantStored: true},
		{name: "force-inference", spec: JobSpec{Parallel: 2}, opts: core.Options{ForceInference: true}, stored: fit, wantStored: true},
		// The stored model is taken at its word, not re-derived: a
		// different one comes out in the report.
		{name: "trusted", spec: JobSpec{Parallel: 2}, stored: &infer.Model{TcdelReadMicros: 75, TcdelWriteMicros: 75, FlatReadMicros: -1, FlatWriteMicros: -1},
			wantStored: true, skipBytes: true},

		{name: "no-model-stored", spec: JobSpec{Parallel: 2}},
		{name: "reorder-window", spec: JobSpec{ReorderWindow: 4096, Parallel: 2}, stored: fit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := newMemCache(t)
			if tc.stored != nil {
				cache.models = map[string]*infer.Model{digest: tc.stored}
			}
			tracer := obs.NewTracer(tc.name, 0, obs.TraceContext{})
			reg := obs.NewRegistry()
			cfg := testConfig(2, tc.opts)
			cfg.Trace, cfg.Metrics = tracer, obs.NewEngineMetrics(reg)
			spec := tc.spec
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
			fitSpan, streamSpan := names[obs.JobSpanNames[obs.JobSpanFit]], names[obs.JobSpanNames[obs.JobSpanStream]]
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
		if _, _, err := RunJobCached(testConfig(2, core.Options{}), JobSpec{In: inPath, Method: method}, digest, cache); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if cache.modelLookups != 0 {
			t.Fatalf("%s consulted the stored model", method)
		}
	}
}
