package main

// Observability surface tests: the /healthz JSON shape (a regression
// lock on the original fields plus the uptime/revision additions), and
// the /metrics end-to-end smoke CI runs by name — boot a daemon with a
// data directory, ingest a trace, run a job twice (the second from the
// result cache), and check the exposition parses and carries nonzero
// engine, daemon and corpus series.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs/obstest"
)

// TestHealthzShape locks the /healthz response contract: every field
// the original endpoint served must stay present with the same JSON
// type, so dashboards and scripts keyed on them survive the migration
// onto the metrics registry.
func TestHealthzShape(t *testing.T) {
	srv := dataServer(t, filepath.Join(t.TempDir(), "data"))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("healthz response missing X-Request-ID")
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	// The original field set (all JSON numbers except ok), unchanged.
	if ok, is := health["ok"].(bool); !is || !ok {
		t.Fatalf("ok = %v", health["ok"])
	}
	for _, field := range []string{"jobs", "queued", "running", "executed", "cache_hits", "corpus"} {
		if _, is := health[field].(float64); !is {
			t.Errorf("field %q missing or not a number: %v", field, health[field])
		}
	}
	// The additions.
	if up, is := health["uptime_seconds"].(float64); !is || up < 0 {
		t.Errorf("uptime_seconds = %v", health["uptime_seconds"])
	}
	if rev, is := health["revision"].(string); !is || rev == "" {
		t.Errorf("revision = %v", health["revision"])
	}
}

// TestMetricsEndToEnd is the CI metrics smoke (run by name in the
// workflow): after one executed job and one cache hit, /metrics must
// serve parseable Prometheus text with nonzero engine stage timings,
// queue-depth series, and jobs/corpus counters. The two jobs are counted
// once each, by outcome, in daemon_jobs_total.
func TestMetricsEndToEnd(t *testing.T) {
	raw, _ := inputTrace(t)
	srv := dataServer(t, filepath.Join(t.TempDir(), "data"))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	digest := uploadCorpus(t, ts, raw, "csv")

	spec := engine.JobSpec{In: corpusScheme + digest}
	first := waitDone(t, ts, postJob(t, ts, spec))
	if first.Cached {
		t.Fatal("first job reported cached")
	}
	second := waitDone(t, ts, postJob(t, ts, spec))
	if !second.Cached {
		t.Fatal("identical resubmission did not hit the result cache")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obstest.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}

	// Engine: the executed job must have left nonzero stage timings and
	// settled queues.
	for _, stage := range []string{"plan", "decompose", "emulate", "merge"} {
		v, ok := obstest.SampleValue(samples, "engine_stage_seconds_total", map[string]string{"stage": stage})
		if !ok || v <= 0 {
			t.Errorf("engine_stage_seconds_total{stage=%q} = %v (found %v), want > 0", stage, v, ok)
		}
	}
	for _, stage := range []string{"decompose", "service", "emulate", "merge"} {
		v, ok := obstest.SampleValue(samples, "engine_stage_queue_depth", map[string]string{"stage": stage})
		if !ok || v != 0 {
			t.Errorf("engine_stage_queue_depth{stage=%q} = %v (found %v), want 0 at idle", stage, v, ok)
		}
	}
	if v, ok := obstest.SampleValue(samples, "engine_requests_total", nil); !ok || v <= 0 {
		t.Errorf("engine_requests_total = %v (found %v), want > 0", v, ok)
	}
	// Every admitted epoch was merged and gave its token back.
	if v, ok := obstest.SampleValue(samples, "engine_epochs_in_flight", nil); !ok || v != 0 {
		t.Errorf("engine_epochs_in_flight = %v (found %v), want 0 at idle", v, ok)
	}
	merged, _ := obstest.SampleValue(samples, "engine_stage_epochs_total", map[string]string{"stage": "merge"})
	admitted, _ := obstest.SampleValue(samples, "engine_stage_epochs_total", map[string]string{"stage": "plan"})
	if merged <= 0 || merged != admitted {
		t.Errorf("engine_stage_epochs_total{stage=\"merge\"} = %v, {stage=\"plan\"} = %v, want equal and > 0", merged, admitted)
	}

	// Daemon: one executed, one cached, an empty queue, and the HTTP
	// series this scrape's own requests created.
	for want, labels := range map[string]map[string]string{
		"daemon_jobs_total-executed": {"outcome": "executed"},
		"daemon_jobs_total-cached":   {"outcome": "cached"},
	} {
		name := strings.SplitN(want, "-", 2)[0]
		if v, ok := obstest.SampleValue(samples, name, labels); !ok || v != 1 {
			t.Errorf("%s%v = %v (found %v), want 1", name, labels, v, ok)
		}
	}
	if v, ok := obstest.SampleValue(samples, "daemon_queue_depth", nil); !ok || v != 0 {
		t.Errorf("daemon_queue_depth = %v (found %v), want 0", v, ok)
	}
	if v, ok := obstest.SampleValue(samples, "daemon_requests_total",
		map[string]string{"route": "POST /v1/jobs", "code": "202"}); !ok || v != 2 {
		t.Errorf("daemon_requests_total{POST /v1/jobs,202} = %v (found %v), want 2", v, ok)
	}
	if v, ok := obstest.SampleValue(samples, "daemon_uptime_seconds", nil); !ok || v < 0 {
		t.Errorf("daemon_uptime_seconds = %v (found %v)", v, ok)
	}

	// Corpus: one upload landed, its bytes and records counted.
	if v, ok := obstest.SampleValue(samples, "corpus_ingest_traces_total", nil); !ok || v != 1 {
		t.Errorf("corpus_ingest_traces_total = %v (found %v), want 1", v, ok)
	}
	if v, ok := obstest.SampleValue(samples, "corpus_ingest_bytes_total", nil); !ok || v != float64(len(raw)) {
		t.Errorf("corpus_ingest_bytes_total = %v (found %v), want %d", v, ok, len(raw))
	}
	if v, ok := obstest.SampleValue(samples, "corpus_traces", nil); !ok || v != 1 {
		t.Errorf("corpus_traces = %v (found %v), want 1", v, ok)
	}
}
