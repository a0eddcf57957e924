package main

// Resilience tests (CI's resilience smoke runs these by name under
// -race): overload sheds with 429 + Retry-After instead of erroring,
// slow-loris connections are dropped by the server timeouts without
// consuming an executor or upload slot, injected storage faults
// surface as 500s with the store left consistent, and a torn journal
// tail from a mid-append ENOSPC replays cleanly after restart.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/obs/obstest"
)

// waitFailed polls the status endpoint until the job fails.
func waitFailed(t *testing.T, ts *httptest.Server, id string) *job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var j job
		if err := json.Unmarshal(getBody(t, ts.URL+"/v1/jobs/"+id), &j); err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case stateFailed:
			return &j
		case stateDone:
			t.Fatalf("job %s finished, want failure", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never failed", id)
	return nil
}

// TestOverloadShedding is the acceptance scenario: a one-executor,
// one-slot-queue daemon under ~3x its capacity must shed with 429 +
// Retry-After rather than fail — zero 5xx for well-formed requests,
// every accepted job reaching done, and the server-side queue_full
// counter agreeing exactly with the client-observed shed count.
func TestOverloadShedding(t *testing.T) {
	o := testOptions(t)
	o.queueCap = 1
	srv := startServer(t, o)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rep, err := RunLoad(LoadOptions{
		BaseURL:       ts.URL,
		Tenants:       6, // vs capacity 2 (1 executor + 1 queue slot)
		Duration:      2 * time.Second,
		TraceRequests: 4000,
		UploadEvery:   500,
		Log:           func(s string) { t.Log(s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServerErrors != 0 {
		t.Errorf("%d server errors under overload, want 0", rep.ServerErrors)
	}
	if rep.ClientErrors != 0 {
		t.Errorf("%d client errors for well-formed requests, want 0", rep.ClientErrors)
	}
	if rep.Shed == 0 {
		t.Error("no requests shed at 3x capacity")
	}
	if rep.Accepted == 0 {
		t.Error("no requests accepted under overload")
	}
	if rep.JobsCompleted != rep.JobsAccepted || rep.JobsFailed != 0 {
		t.Errorf("jobs: %d accepted, %d completed, %d failed; every accepted job must complete",
			rep.JobsAccepted, rep.JobsCompleted, rep.JobsFailed)
	}
	if rep.AcceptedP99Ms <= 0 {
		t.Errorf("accepted p99 = %vms, want > 0", rep.AcceptedP99Ms)
	}

	// The server's own ledger must match the clients': with no rate
	// limits configured, queue_full is the only 429 source.
	samples := scrapeMetrics(t, ts)
	shed, ok := obstest.SampleValue(samples, "daemon_rejected_total",
		map[string]string{"reason": "queue_full", "tenant": anonTenant})
	if !ok || int64(shed) != rep.Shed {
		t.Errorf("queue_full counter = %v (found %v), clients observed %d sheds", shed, ok, rep.Shed)
	}
	if capacity, ok := obstest.SampleValue(samples, "daemon_queue_capacity", nil); !ok || capacity != 1 {
		t.Errorf("daemon_queue_capacity = %v, %v; want 1", capacity, ok)
	}
}

// TestSlowLorisDisconnected: clients trickling headers or bodies are
// cut off by the http.Server deadlines (exercised on a real listener —
// httptest does not apply them) without consuming an executor or
// leaving a staged upload behind, and the daemon keeps serving.
func TestSlowLorisDisconnected(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	srv := dataServer(t, dataDir)
	defer srv.Close()
	hs := newHTTPServer("", srv, 200*time.Millisecond, time.Second, 5*time.Second, time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// awaitClose asserts the server hangs up on conn well before the
	// generous ceiling (the relevant timeout is 0.2-1s).
	awaitClose := func(conn net.Conn, what string) {
		t.Helper()
		start := time.Now()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("%s: connection lived %v, want the server to drop it", what, waited)
		}
	}

	// Headers that never finish: ReadHeaderTimeout drops the client.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/jobs HTTP/1.1\r\nHost: loris\r\nX-Drip: ")
	awaitClose(conn, "header trickle")

	// A body that never finishes: ReadTimeout aborts the streaming
	// ingest mid-decode.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "POST /v1/corpus HTTP/1.1\r\nHost: loris\r\nContent-Length: 1000000\r\n\r\ntimestamp")
	awaitClose(conn2, "body trickle")

	// Neither connection consumed anything: no queued or running job,
	// no staged upload, no catalogued entry — and the daemon answers a
	// well-behaved client immediately.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tmps, err := os.ReadDir(filepath.Join(dataDir, "tmp")); err == nil && len(tmps) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("staged upload left behind by the disconnected client")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, queued, running := srv.jobs.counts(); queued != 0 || running != 0 {
		t.Fatalf("slow loris consumed executor slots: %d queued, %d running", queued, running)
	}
	if n := srv.store.Len(); n != 0 {
		t.Fatalf("store holds %d entries, want 0", n)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after loris: status %d", resp.StatusCode)
	}
}

// TestStorageFaultsSurfaceAs500: injected ENOSPC/EIO in the corpus
// object and result-cache writes must answer 500 (never a 4xx blaming
// the client), leave no staged files, not poison the result cache, and
// the daemon must recover fully once the fault clears — including
// across a restart.
func TestStorageFaultsSurfaceAs500(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	srv := dataServer(t, dataDir)
	fi := faultfs.New()
	srv.store.SetFaultInjector(fi)
	ts := httptest.NewServer(srv)

	blob := corpusBlob(t, "faulted", 64)

	// Object write fails mid-spool: the client's valid upload is a
	// server problem, not bad_trace.
	fi.Fail(faultfs.SinkCorpusObject, 64, syscall.ENOSPC)
	status, _, body := authedReq(t, ts, http.MethodPost, "/v1/corpus", "", blob)
	if status != http.StatusInternalServerError {
		t.Fatalf("faulted upload: status %d, want 500: %s", status, body)
	}
	if env := errEnvelope(t, body); env.Code != "internal" {
		t.Fatalf("faulted upload: code %q, want internal", env.Code)
	}
	if fi.Hits(faultfs.SinkCorpusObject) == 0 {
		t.Fatal("object fault never triggered")
	}
	if n := tmpEntryCount(t, dataDir); n != 0 {
		t.Fatalf("%d staged temp files left after the faulted upload", n)
	}
	if n := srv.store.Len(); n != 0 {
		t.Fatalf("store holds %d entries after the faulted upload, want 0", n)
	}

	// The fault clears; the same upload lands.
	fi.Clear(faultfs.SinkCorpusObject)
	digest := uploadCorpus(t, ts, blob, "")

	// Result-cache write fails: the job reports the storage failure...
	fi.Fail(faultfs.SinkCorpusResult, 32, syscall.EIO)
	spec := engine.JobSpec{In: "corpus:" + digest}
	id := postJob(t, ts, spec)
	j := waitFailed(t, ts, id)
	if !strings.Contains(j.Error, "storage fault") || !strings.Contains(j.Error, syscall.EIO.Error()) {
		t.Fatalf("faulted result job error = %q, want a storage fault naming EIO", j.Error)
	}
	if n := tmpEntryCount(t, dataDir); n != 0 {
		t.Fatalf("%d staged temp files left after the faulted result write", n)
	}

	// ...GC finds nothing half-written, and the failed attempt did not
	// poison the cache: the same spec re-runs to completion.
	fi.Clear(faultfs.SinkCorpusResult)
	if _, err := srv.store.GC(); err != nil {
		t.Fatal(err)
	}
	id2 := postJob(t, ts, spec)
	j2 := waitDone(t, ts, id2)
	if j2.Cached {
		t.Fatal("retried job was a cache hit: the faulted write left a cached result")
	}

	// Restart on the same tree: journal and catalogue replay to a
	// consistent view of both attempts.
	ts.Close()
	srv.Close()
	srv2 := dataServer(t, dataDir)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if n := srv2.store.Len(); n != 1 {
		t.Fatalf("store holds %d entries after restart, want 1", n)
	}
	var failed, done job
	if err := json.Unmarshal(getBody(t, ts2.URL+"/v1/jobs/"+id), &failed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(getBody(t, ts2.URL+"/v1/jobs/"+id2), &done); err != nil {
		t.Fatal(err)
	}
	if failed.State != stateFailed || done.State != stateDone {
		t.Fatalf("replayed states: %s=%s, %s=%s; want failed/done",
			id, failed.State, id2, done.State)
	}
}

// TestJournalTornTailReplay: an ENOSPC that tears a journal append
// mid-record must not take the daemon down, and the torn tail — real
// injected bytes, not a hand-crafted fixture — must replay cleanly on
// the next start, which says so in one warning record of its JSON log
// and writes nothing to stderr.
func TestJournalTornTailReplay(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	srv := dataServer(t, dataDir)
	ts := httptest.NewServer(srv)

	blob := corpusBlob(t, "journaled", 64)
	digest := uploadCorpus(t, ts, blob, "")
	spec := engine.JobSpec{In: "corpus:" + digest}
	id1 := postJob(t, ts, spec)
	waitDone(t, ts, id1)

	// The disk fills: the next submit's journal append tears after 10
	// bytes, and the finish append fails outright.
	fi := faultfs.New()
	srv.jobs.jnl.setFaults(fi)
	fi.FailShort(faultfs.SinkJournal, 10, syscall.ENOSPC)
	id2 := postJob(t, ts, engine.JobSpec{In: "corpus:" + digest, Device: "ssd"})
	waitDone(t, ts, id2) // the daemon serves on despite the journal fault
	// The worker appends the finish record after it publishes the job's
	// state, so "done" can be visible a moment before the second hit.
	for deadline := time.Now().Add(5 * time.Second); fi.Hits(faultfs.SinkJournal) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("journal fault hits = %d, want >= 2 (submit + finish)", fi.Hits(faultfs.SinkJournal))
		}
	}

	// Crash without the clean-shutdown compaction, leaving the torn
	// tail in place.
	srv.jobs.jnl.close()
	ts.Close()
	srv.Close()
	raw, err := os.ReadFile(filepath.Join(dataDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasSuffix(raw, []byte("\n")) {
		t.Fatal("fixture: journal tail is intact, the fault never tore a record")
	}

	// Replay tolerates the tear: the completed job survives, the job
	// whose submit record was torn is gone, and new work still runs.
	o := testOptions(t)
	o.dataDir = dataDir
	var logBuf bytes.Buffer
	caught, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer caught.Close()
	stderr := os.Stderr
	os.Stderr = caught
	srv2, err := newServer(o, slog.New(slog.NewJSONHandler(&logBuf, nil)))
	os.Stderr = stderr
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if raw, err := os.ReadFile(caught.Name()); err != nil || len(raw) != 0 {
		t.Fatalf("replaying the torn journal wrote %q to stderr (%v)", raw, err)
	}
	// Read before serving, while nothing else logs.
	warnings := 0
	for _, line := range strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not one JSON object: %v", line, err)
		}
		if rec["level"] == "WARN" {
			warnings++
			if msg, _ := rec["msg"].(string); !strings.Contains(msg, "journal") || rec["error"] == nil {
				t.Errorf("warning %v: want a journal message with an error attribute", rec)
			}
		}
	}
	if warnings != 1 {
		t.Fatalf("%d warnings replaying the torn journal, want 1:\n%s", warnings, logBuf.String())
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	var page jobPage
	if err := json.Unmarshal(getBody(t, ts2.URL+"/v1/jobs"), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != id1 || page.Jobs[0].State != stateDone {
		t.Fatalf("replayed jobs = %+v, want exactly %s done", page.Jobs, id1)
	}
	id3 := postJob(t, ts2, spec)
	j3 := waitDone(t, ts2, id3)
	if !j3.Cached {
		t.Errorf("post-replay resubmit was not a cache hit; the result cache did not survive")
	}
}
