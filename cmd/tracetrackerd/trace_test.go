package main

// Trace end-to-end smoke (run by name, with -race, in CI): boot a
// daemon, run a job with a client traceparent, and check the job's
// span timeline serves as a parseable tree whose root covers the
// job's wall time, in both JSON and Chrome trace-event form — plus
// the flight-recorder lifecycle answers (409 before finish, 410 after
// eviction) and the slow-job log line.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// submitTraced posts a job with a traceparent header and returns the
// accepted job record.
func submitTraced(t *testing.T, ts *httptest.Server, spec engine.JobSpec, traceparent string) *job {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	if echo := resp.Header.Get("Traceparent"); echo != traceparent {
		t.Fatalf("submit response traceparent %q, want the client's %q", echo, traceparent)
	}
	var j job
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return &j
}

func getTrace(t *testing.T, ts *httptest.Server, id, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func TestTraceEndToEnd(t *testing.T) {
	raw, _ := inputTrace(t)
	o := testOptions(t)
	o.slowJob = time.Nanosecond // every job counts as slow
	o.traceRing = 1
	var logBuf bytes.Buffer
	srv, err := newServer(o, slog.New(slog.NewTextHandler(&logBuf, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	digest := uploadCorpus(t, ts, raw, "csv")

	// The client's distributed-trace position: the job must file under
	// this trace ID, with the client's span as the root's parent.
	clientTC := obs.TraceContext{
		TraceID: "0af7651916cd43dd8448eb211c80319c",
		SpanID:  "b7ad6b7169203331",
	}
	spec := engine.JobSpec{In: corpusScheme + digest}
	sub := submitTraced(t, ts, spec, clientTC.Traceparent())
	if sub.TraceID != clientTC.TraceID {
		t.Fatalf("accepted job trace_id %q, want the client's %q", sub.TraceID, clientTC.TraceID)
	}

	done := waitDone(t, ts, sub.ID)
	if done.TraceID != clientTC.TraceID {
		t.Fatalf("finished job trace_id %q, want %q", done.TraceID, clientTC.TraceID)
	}
	if done.TraceURL != "/v1/jobs/"+sub.ID+"/trace" {
		t.Fatalf("trace_url %q", done.TraceURL)
	}

	// The JSON timeline: a span tree rooted at the job, joined to the
	// client's trace, with the fixed stages and nonzero epoch spans.
	resp, body := getTrace(t, ts, sub.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", resp.StatusCode, body)
	}
	var jt obs.JobTrace
	if err := json.Unmarshal(body, &jt); err != nil {
		t.Fatalf("trace response %q: %v", body, err)
	}
	if jt.TraceID != clientTC.TraceID || jt.ParentSpanID != clientTC.SpanID {
		t.Fatalf("timeline trace identity: id %q parent %q", jt.TraceID, jt.ParentSpanID)
	}
	if len(jt.Spans) == 0 {
		t.Fatal("timeline has no spans")
	}
	root := jt.Spans[0]
	names := map[string]int{}
	var epochDur time.Duration
	for _, s := range jt.Spans {
		names[s.Name]++
		if s.StartNS < root.StartNS || s.EndNS > root.EndNS {
			t.Fatalf("span %s escapes the root: %+v", s.Name, s)
		}
		if s.Name == "epoch" {
			epochDur += s.Duration()
		}
	}
	// The job-level vocabulary (no fit span: the input records its
	// latencies) plus the stage spans under the stream pass.
	for _, want := range []string{"cache-lookup", "store", "stream", "plan", "epoch", "decompose", "emulate", "merge"} {
		if names[want] == 0 {
			t.Errorf("timeline missing %q span; spans: %v", want, names)
		}
	}
	if epochDur <= 0 {
		t.Fatal("epoch spans have zero total duration")
	}

	// The root span's duration tracks the job's recorded wall time.
	wall := done.Finished.Sub(*done.Started)
	rootDur := time.Duration(jt.DurationNS)
	if diff := (rootDur - wall).Abs(); diff > 150*time.Millisecond {
		t.Fatalf("root span %v vs job wall %v (diff %v)", rootDur, wall, diff)
	}

	// The Perfetto form: valid Chrome trace-event JSON with one X
	// event per span, served as a download.
	resp, body = getTrace(t, ts, sub.ID, "?format=perfetto")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perfetto trace: status %d: %s", resp.StatusCode, body)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, ".trace.json") {
		t.Fatalf("perfetto content disposition %q", cd)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("perfetto export invalid: %v\n%s", err, body)
	}
	xs := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			xs++
		}
	}
	if xs != len(jt.Spans) {
		t.Fatalf("perfetto export has %d X events for %d spans", xs, len(jt.Spans))
	}
	if chrome.OtherData["trace_id"] != clientTC.TraceID {
		t.Fatalf("perfetto otherData: %v", chrome.OtherData)
	}

	if resp, body := getTrace(t, ts, sub.ID, "?format=svg"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := getTrace(t, ts, "job-none", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}

	// An unfinished job has no timeline yet: 409.
	srv.jobs.park(job{ID: "job-q", State: stateQueued})
	if resp, body := getTrace(t, ts, "job-q", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued job trace: status %d: %s", resp.StatusCode, body)
	}

	// The slow-job threshold (1ns here) fired: counter and log line
	// naming the slowest spans.
	if v := srv.slowJobs.Value(); v < 1 {
		t.Fatalf("daemon_slow_jobs_total = %d, want >= 1", v)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "slow job") || !strings.Contains(logs, "slowest_spans=") {
		t.Fatalf("slow-job log line missing:\n%s", logs)
	}

	// A second job evicts the first from the ring of one; its endpoint
	// then answers 410.
	sub2 := submitTraced(t, ts, engine.JobSpec{In: corpusScheme + digest, Method: "dynamic"},
		obs.NewTraceContext().Traceparent())
	waitDone(t, ts, sub2.ID)
	resp, body = getTrace(t, ts, sub.ID, "")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted trace: status %d: %s", resp.StatusCode, body)
	}
	if env := errEnvelope(t, body); env.Code != "trace_evicted" {
		t.Fatalf("evicted trace: code %q", env.Code)
	}
	if v, ok := obstest.SampleValue(scrapeMetrics(t, ts), "daemon_trace_evictions_total", nil); !ok || v < 1 {
		t.Fatalf("daemon_trace_evictions_total = %v (present %v), want >= 1", v, ok)
	}
	if resp, _ := getTrace(t, ts, sub2.ID, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("newest trace evicted too: status %d", resp.StatusCode)
	}
}

// TestTraceEndToEndServedBytes holds the flight recorder to the
// timeline it froze: for a job that finishes and for one whose result
// write fails mid-stream, GET …/trace serves, in JSON and in Perfetto form, exactly
// the bytes rendered from the tracer as it finished, and a second GET a
// second later serves them again. Both roots are open until Finish
// stamps them; TestTracerFinishFreezes covers open spans below the root.
func TestTraceEndToEndServedBytes(t *testing.T) {
	raw, _ := inputTrace(t)
	srv := testServer(t, engine.Config{
		Workers: 2, MaxShardRequests: 128,
	}, 1)
	defer srv.Close()
	fi := faultfs.New()
	srv.store.SetFaultInjector(fi)
	// Render each timeline as its job finishes, before the job turns
	// terminal and any GET can reach it. The wrapper is in place before
	// the HTTP server starts, so no executor reads run while it is set.
	type rendered struct{ json, perfetto []byte }
	var mu sync.Mutex
	atFinish := map[string]rendered{}
	run := srv.jobs.run
	srv.jobs.run = func(j job) (journalRecord, string) {
		rec, path := run(j)
		jt, ok := srv.flight.Get(j.ID)
		if !ok {
			t.Errorf("%s: no timeline parked at finish", j.ID)
			return rec, path
		}
		w := httptest.NewRecorder()
		writeJSON(w, jt)
		var perfetto bytes.Buffer
		obs.WriteChromeTrace(&perfetto, jt)
		mu.Lock()
		atFinish[j.ID] = rendered{w.Body.Bytes(), perfetto.Bytes()}
		mu.Unlock()
		return rec, path
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	okID := submitTrace(t, ts, raw, engine.JobSpec{})
	size := len(getBody(t, ts.URL+waitDone(t, ts, okID).ResultURL))
	// The result write of a second job fails half way through its bytes:
	// the job fails after several epochs are in flight.
	fi.Fail(faultfs.SinkCorpusResult, int64(size/2), syscall.EIO)
	failID := submitTrace(t, ts, raw, engine.JobSpec{Method: "dynamic"})
	waitFailed(t, ts, failID)

	served := func(id string) rendered {
		t.Helper()
		resp, js := getTrace(t, ts, id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s trace: status %d: %s", id, resp.StatusCode, js)
		}
		resp, pf := getTrace(t, ts, id, "?format=perfetto")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s perfetto trace: status %d: %s", id, resp.StatusCode, pf)
		}
		return rendered{js, pf}
	}
	first := map[string]rendered{okID: served(okID), failID: served(failID)}
	time.Sleep(time.Second)
	for _, id := range []string{okID, failID} {
		mu.Lock()
		want := atFinish[id]
		mu.Unlock()
		for i, got := range []rendered{first[id], served(id)} {
			if !bytes.Equal(got.json, want.json) {
				t.Errorf("%s GET %d: JSON differs from the timeline at finish\n got %s\nwant %s", id, i+1, got.json, want.json)
			}
			if !bytes.Equal(got.perfetto, want.perfetto) {
				t.Errorf("%s GET %d: Perfetto bytes differ from the timeline at finish", id, i+1)
			}
		}
	}

	// The failed job stopped inside its stream pass, after its epoch
	// spans were recorded.
	var jt obs.JobTrace
	if err := json.Unmarshal(atFinish[failID].json, &jt); err != nil {
		t.Fatal(err)
	}
	epochs := 0
	for _, s := range jt.Spans {
		if s.Name == obs.SpanEpoch.String() {
			epochs++
		}
	}
	if epochs == 0 {
		t.Fatalf("failed job's timeline has no epoch spans: %+v", jt.Spans)
	}
}

// TestFlightRecorderBytesGauge reads daemon_trace_recorder_bytes and
// daemon_trace_recorder_timelines after each step that parks, replaces
// or evicts a timeline. A parked tracer's packed size is fixed, so the
// two sizes read off a lone timeline predict every later reading.
func TestFlightRecorderBytesGauge(t *testing.T) {
	o := testOptions(t)
	o.traceRing = 2
	srv := startServer(t, o)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	finished := func(epochs int) *obs.Tracer {
		tr := obs.NewTracer("job", 0, obs.TraceContext{})
		for i := range epochs {
			ep := tr.StartEpoch(tr.Root(), i)
			ep.Child(obs.StageMerge).End()
			ep.End()
		}
		tr.Finish()
		return tr
	}
	small, big := finished(0), finished(50)
	read := func() (bytes, timelines float64) {
		t.Helper()
		samples := scrapeMetrics(t, ts)
		b, ok := obstest.SampleValue(samples, "daemon_trace_recorder_bytes", nil)
		n, ok2 := obstest.SampleValue(samples, "daemon_trace_recorder_timelines", nil)
		if !ok || !ok2 {
			t.Fatal("recorder gauges missing from /metrics")
		}
		return b, n
	}
	if b, n := read(); b != 0 || n != 0 {
		t.Fatalf("empty recorder: %v B in %v timelines", b, n)
	}

	srv.flight.Add("job-a", small)
	s, _ := read()
	srv.flight.Add("job-a", big) // replaces job-a
	b, _ := read()
	if s <= 0 || b <= s {
		t.Fatalf("packed sizes read: small %v B, big %v B", s, b)
	}

	for _, step := range []struct {
		name      string
		do        func()
		bytes     float64
		timelines float64
	}{
		{"park job-b", func() { srv.flight.Add("job-b", small) }, b + s, 2},
		{"replace job-a", func() { srv.flight.Add("job-a", small) }, 2 * s, 2},
		{"park job-c, evicting job-a", func() { srv.flight.Add("job-c", big) }, s + b, 2},
	} {
		step.do()
		if got, n := read(); got != step.bytes || n != step.timelines {
			t.Fatalf("%s: gauges read %v B in %v timelines, want %v B in %v", step.name, got, n, step.bytes, step.timelines)
		}
	}
}
