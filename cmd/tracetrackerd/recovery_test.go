package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs/obstest"
	"repro/internal/trace"
)

// dataServer builds a testOptions server on the given data directory.
func dataServer(t *testing.T, dataDir string) *server {
	t.Helper()
	o := testOptions(t)
	o.dataDir = dataDir
	return startServer(t, o)
}

// uploadCorpus PUTs body to /v1/corpus and returns the entry digest.
func uploadCorpus(t *testing.T, ts *httptest.Server, body []byte, format string) string {
	t.Helper()
	url := ts.URL + "/v1/corpus"
	if format != "" {
		url += "?format=" + format
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: status %d: %s", resp.StatusCode, msg)
	}
	var ack struct {
		Created bool `json:"created"`
		Entry   struct {
			Digest string `json:"digest"`
		} `json:"entry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Entry.Digest == "" {
		t.Fatal("upload: empty digest")
	}
	return ack.Entry.Digest
}

// getBody fetches a URL and returns its bytes, asserting 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// health fetches /healthz as a map.
func health(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	var h map[string]any
	if err := json.Unmarshal(getBody(t, ts.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCorpusJobCacheHit is the acceptance scenario: the same JobSpec
// submitted twice against the same corpus digest performs exactly one
// reconstruction — the second run is a cache hit with byte-identical
// output.
func TestCorpusJobCacheHit(t *testing.T) {
	dir := t.TempDir()
	raw, want := inputTrace(t)
	srv := dataServer(t, filepath.Join(dir, "data"))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	digest := uploadCorpus(t, ts, raw, "") // format sniffed
	var wantBuf bytes.Buffer
	if err := trace.WriteCSV(&wantBuf, want); err != nil {
		t.Fatal(err)
	}

	spec := engine.JobSpec{In: "corpus:" + digest}
	id1 := postJob(t, ts, spec)
	j1 := waitDone(t, ts, id1)
	if j1.Cached {
		t.Fatal("first run reported cached")
	}
	if j1.Digest != digest {
		t.Fatalf("job digest: %q", j1.Digest)
	}
	if sj, _ := srv.jobs.Get(id1); sj.outPath == "" {
		t.Fatal("corpus job result not backed by the cache file: eviction would lose it")
	}
	got1 := getBody(t, ts.URL+"/v1/jobs/"+id1+"/result")
	if !bytes.Equal(got1, wantBuf.Bytes()) {
		t.Fatal("first result diverges from sequential reconstruction")
	}

	// Resubmitting by digest prefix still hits: the spec canonicalizes.
	id2 := postJob(t, ts, engine.JobSpec{In: "corpus:" + digest[:12]})
	j2 := waitDone(t, ts, id2)
	if !j2.Cached {
		t.Fatal("second run was not a cache hit")
	}
	if j2.Report == nil || j2.Report.Requests != int64(want.Len()) {
		t.Fatalf("cache hit lost the report: %+v", j2.Report)
	}
	got2 := getBody(t, ts.URL+"/v1/jobs/"+id2+"/result")
	if !bytes.Equal(got2, wantBuf.Bytes()) {
		t.Fatal("cached result diverges")
	}

	// informat "auto" on a corpus job means "use the ingested format"
	// and still lands on the same cache key.
	id3 := postJob(t, ts, engine.JobSpec{In: "corpus:" + digest, InFormat: "auto"})
	if j3 := waitDone(t, ts, id3); !j3.Cached {
		t.Fatal("auto-informat corpus job missed the cache")
	}

	h := health(t, ts)
	if h["executed"] != float64(1) || h["cache_hits"] != float64(2) {
		t.Fatalf("want exactly one reconstruction and two hits, got executed=%v cache_hits=%v",
			h["executed"], h["cache_hits"])
	}
}

// TestCorpusEndpoints covers upload dedup, listing, info by prefix and
// data round-trip.
func TestCorpusEndpoints(t *testing.T) {
	dir := t.TempDir()
	raw, _ := inputTrace(t)
	srv := dataServer(t, filepath.Join(dir, "data"))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	d1 := uploadCorpus(t, ts, raw, "csv")
	d2 := uploadCorpus(t, ts, raw, "") // dedup, sniffed
	if d1 != d2 {
		t.Fatalf("dedup: %s vs %s", d1, d2)
	}

	var list []map[string]any
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/corpus"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0]["digest"] != d1 {
		t.Fatalf("list: %+v", list)
	}

	var info map[string]any
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/corpus/"+d1[:10]), &info); err != nil {
		t.Fatal(err)
	}
	if info["digest"] != d1 || info["format"] != "csv" {
		t.Fatalf("info: %+v", info)
	}

	if data := getBody(t, ts.URL+"/v1/corpus/"+d1+"/data"); !bytes.Equal(data, raw) {
		t.Fatal("corpus data round-trip diverges")
	}

	// Bad upload rejected, unknown digest 404.
	resp, err := http.Post(ts.URL+"/v1/corpus", "text/plain", bytes.NewReader([]byte("garbage\n")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/corpus/ffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d", resp.StatusCode)
	}
}

// TestJournalReplayRecovery kills the server between jobs and checks
// the journal restart contract: finished jobs still serve their cached
// results without re-execution, and a job that was interrupted mid-run
// (submit record without a finish record) re-runs to byte-identical
// output.
func TestJournalReplayRecovery(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	raw, want := inputTrace(t)
	var wantCSV bytes.Buffer
	if err := trace.WriteCSV(&wantCSV, want); err != nil {
		t.Fatal(err)
	}

	// Phase 1: ingest and finish one job, then shut down cleanly.
	srv1 := dataServer(t, dataDir)
	ts1 := httptest.NewServer(srv1)
	digest := uploadCorpus(t, ts1, raw, "csv")
	id1 := postJob(t, ts1, engine.JobSpec{In: "corpus:" + digest})
	waitDone(t, ts1, id1)
	ts1.Close()
	srv1.Close()

	// A clean shutdown compacts the journal to the retained jobs: one
	// submit + one done record.
	jdata, err := os.ReadFile(filepath.Join(dataDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(jdata, []byte("\n")); lines != 2 {
		t.Fatalf("compacted journal has %d records, want 2:\n%s", lines, jdata)
	}

	// Phase 2: simulate a crash mid-job by appending a submit record
	// with no matching finish — exactly what a killed server leaves
	// behind. The spec differs from job-1 (binary output) so serving it
	// requires a genuine re-run, not a cache hit.
	interrupted := engine.JobSpec{In: "corpus:" + digest, InFormat: "csv", OutFormat: "bin"}.Normalized()
	rec := journalRecord{
		Op: journalSubmit, ID: "job-77", Time: time.Now(),
		Spec: &interrupted, Digest: digest,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	// A torn half-record after it must be tolerated too.
	line = append(line, '\n')
	line = append(line, []byte(`{"op":"done","id":"job-77","tor`)...)
	jf, err := os.OpenFile(filepath.Join(dataDir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(line); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Phase 3: restart on the same data directory.
	srv2 := dataServer(t, dataDir)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	// The finished job survived the restart and serves its result from
	// the cache without re-executing.
	var j1 job
	if err := json.Unmarshal(getBody(t, ts2.URL+"/v1/jobs/"+id1), &j1); err != nil {
		t.Fatal(err)
	}
	if j1.State != stateDone {
		t.Fatalf("replayed job state: %s", j1.State)
	}
	if got := getBody(t, ts2.URL+"/v1/jobs/"+id1+"/result"); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Fatal("replayed result diverges from the original reconstruction")
	}
	if j1.Report == nil || j1.Report.Requests != int64(want.Len()) {
		t.Fatalf("replayed job lost its report: %+v", j1.Report)
	}

	// The interrupted job re-queued and re-ran to byte-identical
	// output against the sequential pipeline.
	j77 := waitDone(t, ts2, "job-77")
	if j77.Cached {
		t.Fatal("interrupted bin job cannot be a cache hit: nothing produced bin output before")
	}
	got77 := getBody(t, ts2.URL+"/v1/jobs/job-77/result")
	// Encode via the streaming encoder — the form the job writes and
	// the cache serves (sentinel count, not the counted header).
	var wantBin bytes.Buffer
	if err := trace.EncodeTrace(trace.NewBinaryEncoder(&wantBin), want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got77, wantBin.Bytes()) {
		t.Fatal("re-run output diverges from the sequential reconstruction")
	}

	// Replay restored executed/cache_hits counters only for this
	// process: exactly the one re-run executed, zero for the restored
	// job.
	h := health(t, ts2)
	if h["executed"] != float64(1) {
		t.Fatalf("restart executed %v jobs, want 1 (the interrupted re-run)", h["executed"])
	}
	if fmt.Sprint(h["corpus"]) != "1" {
		t.Fatalf("corpus count after restart: %v", h["corpus"])
	}

	// Restart IDs continue after the journal's max.
	idNext := postJob(t, ts2, engine.JobSpec{In: "corpus:" + digest})
	var n int
	if _, err := fmt.Sscanf(idNext, "job-%d", &n); err != nil || n <= 77 {
		t.Fatalf("post-restart id %q does not continue the journal sequence", idNext)
	}
	waitDone(t, ts2, idNext)
}

// TestRecoveryServesEveryDoneJob kills the daemon (no clean-shutdown
// compaction) after two jobs, on the default and on the hdd target, and
// checks that after the replay each still answers 200 on /result with
// the bytes it served before. A restart that runs no job counts none:
// every job outcome reads 0 and no series counts a cache hit, though
// the replay looks up each done job's result. A journal line written by
// an earlier version, whose spec still carries "stream":true, replays
// and runs like any other.
func TestRecoveryServesEveryDoneJob(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	raw, want := inputTrace(t)

	srv1 := dataServer(t, dataDir)
	ts1 := httptest.NewServer(srv1)
	digest := uploadCorpus(t, ts1, raw, "csv")
	specs := map[string]engine.JobSpec{
		"array": {In: corpusScheme + digest},
		"hdd":   {In: corpusScheme + digest, Device: "hdd"},
	}
	ids, before := map[string]string{}, map[string][]byte{}
	for kind, spec := range specs {
		ids[kind] = postJob(t, ts1, spec)
		j := waitDone(t, ts1, ids[kind])
		before[kind] = getBody(t, ts1.URL+j.ResultURL)
	}
	// Kill: the journal keeps its append-only form.
	srv1.jobs.jnl.close()
	ts1.Close()
	srv1.Close()

	// A restart that is sent nothing, scraped and killed the same way.
	quiet := dataServer(t, dataDir)
	scrape := httptest.NewRecorder()
	quiet.ServeHTTP(scrape, httptest.NewRequest("GET", "/metrics", nil))
	quiet.jobs.jnl.close()
	quiet.Close()
	samples, err := obstest.ParseExposition(scrape.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := obstest.SampleValue(samples, "daemon_journal_replayed_jobs_total", nil); v != float64(len(ids)) {
		t.Fatalf("daemon_journal_replayed_jobs_total = %v after the restart, want the %d done jobs", v, len(ids))
	}
	outcomes := 0
	for _, s := range samples {
		if s.Name == "daemon_jobs_total" {
			outcomes++
		}
		if (s.Name == "daemon_jobs_total" || strings.Contains(s.Name, "cache_hit")) && s.Value != 0 {
			t.Errorf("%s %v = %v after a restart that ran no job, want 0", s.Name, s.Labels, s.Value)
		}
	}
	if outcomes != 3 {
		t.Fatalf("a fresh scrape has %d daemon_jobs_total series, want executed, cached and failed", outcomes)
	}

	// What a pre-PR-16 daemon journaled for an interrupted streaming
	// job, here on the same input in bin: nothing produced it before.
	appendJournal(t, dataDir, fmt.Sprintf(`{"op":"submit","id":"job-40","time":%q,"spec":{"name":"legacy","in":"corpus:%s","informat":"csv","outformat":"bin","fio_device":"/dev/nvme0n1","method":"tracetracker","device":"array","factor":100,"threshold_us":10000,"stream":true},"digest":%q}`,
		time.Now().Format(time.RFC3339Nano), digest, digest))

	srv2 := dataServer(t, dataDir)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	for kind, id := range ids {
		var j job
		if err := json.Unmarshal(getBody(t, ts2.URL+"/v1/jobs/"+id), &j); err != nil {
			t.Fatal(err)
		}
		if j.State != stateDone || j.ResultURL == "" {
			t.Fatalf("%s job %s after restart: state %s, result_url %q", kind, id, j.State, j.ResultURL)
		}
		if got := getBody(t, ts2.URL+j.ResultURL); !bytes.Equal(got, before[kind]) {
			t.Fatalf("%s job %s serves different bytes after the restart", kind, id)
		}
	}
	legacy := waitDone(t, ts2, "job-40")
	if got := getBody(t, ts2.URL+legacy.ResultURL); !bytes.Equal(got, encodeAs(t, "bin", want)) {
		t.Fatal("legacy stream:true job diverges from the same reconstruction run today")
	}
	if h := health(t, ts2); h["executed"] != float64(1) {
		t.Fatalf("restart executed %v jobs, want 1: the legacy line and none of the restored ones", h["executed"])
	}
}

// appendJournal appends lines, one record each, to the journal under
// dataDir: what an earlier daemon left there.
func appendJournal(t *testing.T, dataDir string, lines ...string) {
	t.Helper()
	jf, err := os.OpenFile(filepath.Join(dataDir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	for _, line := range lines {
		if _, err := jf.WriteString(line + "\n"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyPathJobReplay replays a journal an earlier daemon wrote
// with jobs on server-side paths beside a corpus job: an interrupted
// path job with an out path and a finished one whose done record names
// its output file. Both answer, failed with the removal message; neither
// runs, and the out path is never created. The corpus job still serves
// its bytes.
func TestLegacyPathJobReplay(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	raw, _ := inputTrace(t)
	inPath, outPath, donePath := filepath.Join(dir, "in.csv"), filepath.Join(dir, "legacy.csv"), filepath.Join(dir, "done.csv")
	for _, p := range []string{inPath, donePath} {
		if err := os.WriteFile(p, raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	srv1 := dataServer(t, dataDir)
	ts1 := httptest.NewServer(srv1)
	corpusID := submitTrace(t, ts1, raw, engine.JobSpec{})
	before := getBody(t, ts1.URL+waitDone(t, ts1, corpusID).ResultURL)
	ts1.Close()
	srv1.Close()

	now := time.Now().Format(time.RFC3339Nano)
	appendJournal(t, dataDir,
		fmt.Sprintf(`{"op":"submit","id":"job-40","time":%q,"spec":{"name":"legacy","in":%q,"informat":"csv","out":%q,"outformat":"csv","method":"tracetracker","device":"array","stream":true}}`, now, inPath, outPath),
		fmt.Sprintf(`{"op":"submit","id":"job-41","time":%q,"spec":{"name":"done","in":%q,"informat":"csv","outformat":"csv"}}`, now, inPath),
		fmt.Sprintf(`{"op":"done","id":"job-41","time":%q,"out_path":%q,"report":{"requests":400}}`, now, donePath))

	srv2 := dataServer(t, dataDir)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	for _, id := range []string{"job-40", "job-41"} {
		var j job
		if err := json.Unmarshal(getBody(t, ts2.URL+"/v1/jobs/"+id), &j); err != nil {
			t.Fatal(err)
		}
		if j.State != stateFailed || j.Error != errPathInput || j.ResultURL != "" {
			t.Fatalf("legacy path job %s after replay: state %s, error %q, result_url %q; want failed with %q",
				id, j.State, j.Error, j.ResultURL, errPathInput)
		}
		if status, body := doReq(t, ts2, http.MethodGet, "/v1/jobs/"+id+"/result", ""); status != http.StatusConflict {
			t.Fatalf("legacy path job %s result: status %d, want 409: %s", id, status, body)
		}
	}
	if got := getBody(t, ts2.URL+"/v1/jobs/"+corpusID+"/result"); !bytes.Equal(got, before) {
		t.Fatal("the corpus job serves different bytes after the replay")
	}
	if h := health(t, ts2); h["executed"] != float64(0) || h["queued"] != float64(0) {
		t.Fatalf("replay executed %v and queued %v jobs, want none", h["executed"], h["queued"])
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("a legacy job's out path was created: %v", err)
	}
}

// TestJournalReplayInterruptedHDDJob checks the restart contract for
// HDD-target jobs: an interrupted job (submit record without a finish
// — what a killed server leaves) re-queues on startup, re-runs through
// the epoch-pipelined HDD path on the daemon's workers (the "parallel"
// an earlier daemon journalled is ignored), and serves a result
// byte-identical to the sequential HDD reconstruction.
func TestJournalReplayInterruptedHDDJob(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	raw, _ := inputTrace(t)

	// Phase 1: ingest the input, then shut down cleanly with no jobs.
	srv1 := dataServer(t, dataDir)
	ts1 := httptest.NewServer(srv1)
	digest := uploadCorpus(t, ts1, raw, "csv")
	ts1.Close()
	srv1.Close()

	// Phase 2: forge the crash artifact — a submit record for an HDD
	// job with no matching finish, journalled by an earlier daemon whose
	// specs still carried a worker count.
	interrupted := engine.JobSpec{
		In: "corpus:" + digest, InFormat: "csv", Device: "hdd",
	}.Normalized()
	rec := journalRecord{
		Op: journalSubmit, ID: "job-9", Time: time.Now(),
		Spec: &interrupted, Digest: digest,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	line = bytes.Replace(line, []byte(`"spec":{`), []byte(`"spec":{"parallel":4,`), 1)
	jf, err := os.OpenFile(filepath.Join(dataDir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Phase 3: restart; the job re-runs (no prior result exists to hit).
	srv2 := dataServer(t, dataDir)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	j := waitDone(t, ts2, "job-9")
	if j.Cached {
		t.Fatal("interrupted HDD job cannot be a cache hit: it never finished")
	}
	if j.Report == nil || j.Report.Workers != 2 {
		t.Fatalf("HDD job report workers: %+v, want the daemon's 2", j.Report)
	}
	if j.Report.Shards < 2 {
		t.Fatalf("HDD job ran %d epochs; the pipelined path should cut several", j.Report.Shards)
	}
	got := getBody(t, ts2.URL+"/v1/jobs/job-9/result")

	// The expectation is the sequential HDD pipeline over the same
	// decoded blob — the pre-pipeline serial path.
	oldRT, err := trace.ReadFormat("csv", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Reconstruct(oldRT, device.NewHDD(device.DefaultHDDConfig()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := trace.WriteCSV(&wantCSV, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantCSV.Bytes()) {
		t.Fatal("re-run HDD result diverges from the sequential HDD reconstruction")
	}
}

// TestGracefulCloseGrace checks CloseGrace drains running jobs within
// the deadline and reports an exhausted deadline honestly.
func TestGracefulCloseGrace(t *testing.T) {
	raw, _ := inputTrace(t)
	srv := testServer(t, engine.Config{Workers: 1}, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	id := submitTrace(t, ts, raw, engine.JobSpec{})
	if !srv.CloseGrace(30 * time.Second) {
		t.Fatal("drain did not complete")
	}
	// The submitted job finished during the drain.
	var j job
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/jobs/"+id), &j); err != nil {
		t.Fatal(err)
	}
	if j.State != stateDone {
		t.Fatalf("job state after drain: %s", j.State)
	}
	// Submissions after close are refused.
	body, _ := json.Marshal(engine.JobSpec{In: j.Spec.In})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: status %d", resp.StatusCode)
	}
	// Closing again is a no-op.
	if !srv.CloseGrace(time.Millisecond) {
		t.Fatal("second close reported failure")
	}
}
