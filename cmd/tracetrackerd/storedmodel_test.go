package main

// "Fit once per trace", through the daemon: a Tsdev-unknown blob is
// fitted in its upload's decode pass, in the arrival order every job
// reads, so every default job on it reads the model from the sidecar —
// no fit span, no second decode — and serves the sequential pipeline's
// bytes; a job on a blob stored without a model fits for itself, to the
// same bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/trace"
	"repro/internal/workload"
)

// webmailCSV renders the inference-path fixture (FIU webmail, captured
// on the old disk) with its latencies dropped.
func webmailCSV(t *testing.T, ops int) []byte {
	t.Helper()
	p, ok := workload.Lookup("webmail")
	if !ok {
		t.Fatal("webmail profile missing")
	}
	tr := workload.Collect(p, workload.GenOptions{Ops: ops, Seed: workload.TraceSeed("webmail", 0)}, device.NewHDD(device.DefaultHDDConfig())).Trace
	tr.Name = "webmail-000"
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// modelBits renders a model for bit-for-bit comparison: %x prints
// floats in exact hex.
func modelBits(m *infer.Model) string { return fmt.Sprintf("%x", *m) }

// jobSpans fetches a finished job's timeline: span name → count, and
// the cache-lookup span's attrs.
func jobSpans(t *testing.T, ts *httptest.Server, id string) (map[string]int, map[string]int64) {
	t.Helper()
	resp, body := getTrace(t, ts, id, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of %s: status %d: %s", id, resp.StatusCode, body)
	}
	var jt obs.JobTrace
	if err := json.Unmarshal(body, &jt); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	var lookup map[string]int64
	for _, s := range jt.Spans {
		names[s.Name]++
		if s.Name == "cache-lookup" {
			lookup = s.Attrs
		}
	}
	return names, lookup
}

func modelFits(t *testing.T, ts *httptest.Server, source string) float64 {
	t.Helper()
	v, ok := obstest.SampleValue(scrapeMetrics(t, ts), "engine_model_fits_total", map[string]string{"source": source})
	if !ok {
		t.Fatalf("engine_model_fits_total{source=%q} not exported", source)
	}
	return v
}

func TestStoredModelIdentity(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	raw := webmailCSV(t, 5000)
	old := decodeCSV(t, raw)
	fresh, err := infer.Estimate(old, infer.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// want is the sequential pipeline's output for a spec, rendered.
	want := func(in *trace.Trace, spec engine.JobSpec) []byte {
		mk, err := engine.DeviceFactory(spec.Device)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := core.Reconstruct(in, mk(), core.Options{SkipPostProcess: spec.Method == "dynamic"})
		if err != nil {
			t.Fatal(err)
		}
		return encodeAs(t, spec.Normalized().OutFormat, out)
	}
	// run submits spec, checks the served bytes against the sequential
	// pipeline and the report's model against a fresh fit, and returns
	// the job's span names and cache-lookup attrs.
	run := func(srv *server, ts *httptest.Server, label string, in *trace.Trace, spec engine.JobSpec) (map[string]int, map[string]int64) {
		t.Helper()
		j := waitDone(t, ts, postJob(t, ts, spec))
		if j.Cached {
			t.Fatalf("%s: cache hit; every leg is a distinct key", label)
		}
		if got := getBody(t, ts.URL+j.ResultURL); !bytes.Equal(got, want(in, spec)) {
			t.Fatalf("%s: served bytes diverge from the sequential pipeline", label)
		}
		wantModel, err := infer.Estimate(in, infer.EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if j.Report == nil || math.Float64bits(j.Report.BetaMicros) != math.Float64bits(wantModel.BetaMicros) ||
			math.Float64bits(j.Report.EtaMicros) != math.Float64bits(wantModel.EtaMicros) {
			t.Fatalf("%s: report %+v, want beta/eta of %+v", label, j.Report, wantModel)
		}
		names, lookup := jobSpans(t, ts, j.ID)
		if names["stream"] != 1 {
			t.Fatalf("%s: spans %v, want one stream span", label, names)
		}
		return names, lookup
	}
	// storedLeg is run for a job inside the rule: no fit span, the model
	// found at the lookup, and the whole model — as the result cache's
	// note records the engine report — equal to a fresh fit bit for bit.
	storedLeg := func(srv *server, ts *httptest.Server, label string, spec engine.JobSpec, digest string) {
		t.Helper()
		names, lookup := run(srv, ts, label, old, spec)
		if names["fit"] != 0 || lookup["model"] != 1 || lookup["hit"] != 0 {
			t.Fatalf("%s: spans %v, cache-lookup %v; want no fit span and model=1", label, names, lookup)
		}
		runSpec := spec
		runSpec.In, runSpec.InFormat = "", "csv"
		_, note, ok := srv.store.LookupResult(engine.CacheKey(digest, runSpec))
		if !ok {
			t.Fatalf("%s: no cached result under the job's key", label)
		}
		var n struct {
			Report struct{ Model *infer.Model }
		}
		if err := json.Unmarshal(note, &n); err != nil || n.Report.Model == nil {
			t.Fatalf("%s: note %s: %v", label, note, err)
		}
		if modelBits(n.Report.Model) != modelBits(fresh) {
			t.Fatalf("%s: report model %+v, want the fresh fit %+v", label, n.Report.Model, fresh)
		}
	}
	// fitLeg is run for a job on a blob stored without a model: it fits
	// for itself.
	fitLeg := func(srv *server, ts *httptest.Server, label string, in *trace.Trace, spec engine.JobSpec) {
		t.Helper()
		names, lookup := run(srv, ts, label, in, spec)
		if names["fit"] != 1 || lookup["model"] != 0 {
			t.Fatalf("%s: spans %v, cache-lookup %v; want a fit span and model=0", label, names, lookup)
		}
	}

	// Phase one: every registry device × {csv, bin} × both methods that
	// read the input's model.
	srv := dataServer(t, dataDir)
	ts := httptest.NewServer(srv)
	digest := uploadCorpus(t, ts, raw, "csv")
	e, err := srv.store.Resolve(digest)
	if err != nil || e.Model == nil || modelBits(e.Model) != modelBits(fresh) {
		t.Fatalf("upload: entry model %+v (err %v), want the fresh fit %+v", e.Model, err, fresh)
	}
	stored := 0
	for _, dev := range engine.Devices() {
		for _, format := range []string{"csv", "bin"} {
			for _, method := range []string{"tracetracker", "dynamic"} {
				label := fmt.Sprintf("%s/%s/%s", dev.Name, format, method)
				storedLeg(srv, ts, label, engine.JobSpec{
					In: corpusScheme + digest, Device: dev.Name, OutFormat: format, Method: method,
				}, digest)
				stored++
			}
		}
	}
	if job, st := modelFits(t, ts, "job"), modelFits(t, ts, "stored"); job != 0 || st != float64(stored) {
		t.Fatalf("engine_model_fits_total job=%v stored=%v, want 0 and %d", job, st, stored)
	}
	if v, ok := obstest.SampleValue(scrapeMetrics(t, ts), "corpus_models_fitted_total", nil); !ok || v != 1 {
		t.Fatalf("corpus_models_fitted_total = %v (found %v), want 1", v, ok)
	}
	if v, ok := obstest.SampleValue(scrapeMetrics(t, ts), "corpus_ingest_fit_seconds_total", nil); !ok || v <= 0 {
		t.Fatalf("corpus_ingest_fit_seconds_total = %v (found %v), want > 0", v, ok)
	}

	ts.Close()
	srv.Close()

	// Phase two: a restart. The model now comes back through the
	// sidecar's JSON; keys not used before (the merge-rendered formats).
	srv = dataServer(t, dataDir)
	ts = httptest.NewServer(srv)
	storedLeg(srv, ts, "restart/array/blktrace", engine.JobSpec{In: corpusScheme + digest, OutFormat: "blktrace"}, digest)
	storedLeg(srv, ts, "restart/hdd/fio", engine.JobSpec{In: corpusScheme + digest, Device: "hdd", OutFormat: "fio"}, digest)
	ts.Close()
	srv.Close()

	// Phase three: a store written before this field existed — the
	// sidecar with its model key removed by hand. It opens and serves
	// unchanged; its jobs fit for themselves.
	sidecar := filepath.Join(dataDir, "objects", digest+".json")
	side := map[string]json.RawMessage{}
	sideRaw, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sideRaw, &side); err != nil {
		t.Fatal(err)
	}
	if _, ok := side["model"]; !ok {
		t.Fatalf("sidecar has no model key: %s", sideRaw)
	}
	delete(side, "model")
	if sideRaw, err = json.Marshal(side); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecar, sideRaw, 0o666); err != nil {
		t.Fatal(err)
	}
	srv = dataServer(t, dataDir)
	ts = httptest.NewServer(srv)
	fitLeg(srv, ts, "pre-model-sidecar", old, engine.JobSpec{In: corpusScheme + digest, Device: "ssd", OutFormat: "fio"})
	// A re-upload of a held blob never decodes, so it never fits either:
	// the old entry, still without a model, answers.
	if again := uploadCorpus(t, ts, raw, "csv"); again != digest || srv.store.FittedModel(digest) != nil {
		t.Fatalf("re-upload: digest %s, model %+v", again, srv.store.FittedModel(digest))
	}
	ts.Close()
	srv.Close()
}

// TestStoredModelConcurrentJobs hands one catalogue entry's model to
// several jobs at once (the executors each take their own copy) while
// an upload lands: the -race row for the pointer ingest now publishes.
func TestStoredModelConcurrentJobs(t *testing.T) {
	srv := testServer(t, engine.Config{
		Workers: 2, MaxShardRequests: 128,
	}, 3)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	raw := webmailCSV(t, 3000)
	digest := uploadCorpus(t, ts, raw, "csv")
	old := decodeCSV(t, raw)

	var ids []string
	devs := []string{"array", "ssd", "hdd", "ftl", "host"}
	for _, dev := range devs {
		ids = append(ids, postJob(t, ts, engine.JobSpec{In: corpusScheme + digest, Device: dev, OutFormat: "bin"}))
	}
	uploadCorpus(t, ts, webmailCSV(t, 3100), "csv")
	for i, id := range ids {
		j := waitDone(t, ts, id)
		mk, err := engine.DeviceFactory(devs[i])
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := core.Reconstruct(old, mk(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := getBody(t, ts.URL+j.ResultURL); !bytes.Equal(got, encodeAs(t, "bin", out)) {
			t.Fatalf("%s: served bytes diverge from the sequential pipeline", devs[i])
		}
		if names, _ := jobSpans(t, ts, id); names["fit"] != 0 {
			t.Fatalf("%s: spans %v, want no fit span", devs[i], names)
		}
	}
	if job := modelFits(t, ts, "job"); job != 0 {
		t.Fatalf("engine_model_fits_total{source=job} = %v", job)
	}
}

// TestStoredModelSPC: an uploaded spc trace — a near-sorted corpus —
// lands with the model of its arrival order, and a job on it whose spec
// still carries "reorder_window":1 (once "no window", now an unknown
// key) finishes on the stored model with the bytes the tracetracker CLI
// writes for the same file.
func TestStoredModelSPC(t *testing.T) {
	path := filepath.Join("..", "testdata", "fixture.spc")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if _, err := engine.RunJobTo(engine.Config{}, engine.JobSpec{In: path, InFormat: "spc"}, &cli); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, engine.Config{Workers: 2, MaxShardRequests: 128}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	digest := uploadCorpus(t, ts, raw, "spc")
	if e, err := srv.store.Resolve(digest); err != nil || e.Model == nil {
		t.Fatalf("upload: entry model %+v (err %v), want the fit of its arrival order", e.Model, err)
	}
	status, body := doReq(t, ts, http.MethodPost, "/v1/jobs", `{"in":"`+corpusScheme+digest+`","reorder_window":1}`)
	var ack job
	if status != http.StatusAccepted || json.Unmarshal(body, &ack) != nil {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	j := waitDone(t, ts, ack.ID)
	if got := getBody(t, ts.URL+j.ResultURL); !bytes.Equal(got, cli.Bytes()) {
		t.Fatal("served bytes diverge from the tracetracker CLI's default spc run")
	}
	names, lookup := jobSpans(t, ts, j.ID)
	if names["fit"] != 0 || lookup["model"] != 1 {
		t.Fatalf("spans %v, cache-lookup %v; want no fit span and model=1", names, lookup)
	}
	if job, st := modelFits(t, ts, "job"), modelFits(t, ts, "stored"); job != 0 || st != 1 {
		t.Fatalf("engine_model_fits_total job=%v stored=%v, want 0 and 1", job, st)
	}
}
