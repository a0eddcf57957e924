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
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// inputTrace synthesizes a small Tsdev-known trace and returns its csv
// bytes plus the expected reconstruction.
func inputTrace(t *testing.T) ([]byte, *trace.Trace) {
	t.Helper()
	p, ok := workload.Lookup("ikki")
	if !ok {
		t.Fatal("ikki profile missing")
	}
	app := workload.Generate(p, workload.GenOptions{Ops: 400, Seed: 1})
	old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	old.Name = "ikki-web"
	var raw bytes.Buffer
	if err := trace.WriteCSV(&raw, old); err != nil {
		t.Fatal(err)
	}
	// The daemon decodes the CSV, so the expectation must too.
	want, _, err := core.Reconstruct(decodeCSV(t, raw.Bytes()), device.NewArray(device.DefaultArrayConfig()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return raw.Bytes(), want
}

// testOptions is the daemon's default command line with one executor
// of two workers on small shards, on a fresh data directory.
func testOptions(t *testing.T) *options {
	_, o := flags("tracetrackerd")
	o.dataDir = t.TempDir()
	o.jobs, o.parallel, o.maxShard = 1, 2, 128
	return o
}

// startServer builds the server o describes, silent, failing the test
// on an error.
func startServer(t *testing.T, o *options) *server {
	t.Helper()
	srv, err := newServer(o, obs.NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// testServer builds a server executing concurrent jobs on engines of
// base's workers and shard size, on a fresh data directory.
func testServer(t *testing.T, base engine.Config, concurrent int) *server {
	t.Helper()
	o := testOptions(t)
	o.jobs, o.parallel, o.maxShard = concurrent, base.Workers, base.MaxShardRequests
	return startServer(t, o)
}

// submitTrace uploads raw to the corpus and submits spec on it — the
// one flow of a daemon job — returning the job id.
func submitTrace(t *testing.T, ts *httptest.Server, raw []byte, spec engine.JobSpec) string {
	t.Helper()
	spec.In = corpusScheme + uploadCorpus(t, ts, raw, "")
	return postJob(t, ts, spec)
}

// postJob submits a spec and returns the job id.
func postJob(t *testing.T, ts *httptest.Server, spec engine.JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.ID == "" {
		t.Fatal("submit: empty id")
	}
	return ack.ID
}

// waitDone polls the status endpoint until the job finishes.
func waitDone(t *testing.T, ts *httptest.Server, id string) *job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case stateDone:
			return &j
		case stateFailed:
			t.Fatalf("job failed: %s", j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return nil
}

// TestSubmitStatusResultRoundTrip is the acceptance scenario: upload a
// trace, submit a job on it, poll status, fetch the result, and check it
// equals the sequential pipeline's reconstruction.
func TestSubmitStatusResultRoundTrip(t *testing.T) {
	raw, want := inputTrace(t)
	srv := testServer(t, engine.Config{Workers: 4, MaxShardRequests: 128}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := submitTrace(t, ts, raw, engine.JobSpec{})
	j := waitDone(t, ts, id)
	if j.Report == nil || j.Report.Requests != int64(want.Len()) {
		t.Fatalf("report: %+v", j.Report)
	}
	if j.ResultURL == "" {
		t.Fatal("no result url")
	}

	resp, err := http.Get(ts.URL + j.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	// Compare served bytes directly: the CSV text form is the identity
	// to preserve (a decode/re-encode cycle would truncate µs text).
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := trace.WriteCSV(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBuf.Bytes()) {
		t.Fatal("served result diverges from sequential reconstruction")
	}
}

// TestSpecCarriesNoWorkerCount: "parallel", a spec field of earlier
// versions, is an unknown key — accepted and ignored — so a job runs on
// the daemon's workers and no client sizes the engine's buffers.
func TestSpecCarriesNoWorkerCount(t *testing.T) {
	raw, _ := inputTrace(t)
	srv := testServer(t, engine.Config{Workers: 2, MaxShardRequests: 128}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := `{"in":"` + corpusScheme + uploadCorpus(t, ts, raw, "") + `","parallel":3}`
	status, body := doReq(t, ts, http.MethodPost, "/v1/jobs", spec)
	var ack job
	if status != http.StatusAccepted || json.Unmarshal(body, &ack) != nil {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	if j := waitDone(t, ts, ack.ID); j.Report == nil || j.Report.Workers != 2 {
		t.Fatalf("report %+v, want the daemon's 2 workers", j.Report)
	}
}

// TestStreamingJobToFile checks a job's one result location: the job
// streams into the result-cache entry of its input digest and spec, and
// the result endpoint serves that file.
func TestStreamingJobToFile(t *testing.T) {
	raw, want := inputTrace(t)
	srv := testServer(t, engine.Config{Workers: 2, MaxShardRequests: 128}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := waitDone(t, ts, submitTrace(t, ts, raw, engine.JobSpec{}))
	entry, _, ok := srv.store.LookupResult(engine.CacheKey(j.Digest, j.Spec))
	if sj, _ := srv.jobs.Get(j.ID); !ok || sj.outPath != entry {
		t.Fatalf("result at %q, want the cache entry %q (found %v)", sj.outPath, entry, ok)
	}
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := trace.WriteCSV(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, wantBuf.Bytes()) {
		t.Fatal("streaming job output diverges from sequential reconstruction")
	}
	if got := getBody(t, ts.URL+j.ResultURL); !bytes.Equal(got, data) {
		t.Fatal("result endpoint serves other bytes than the cache entry")
	}
}

// TestResultRanges checks the README's promise that /result honours
// byte ranges: a Range request answers 206 with exactly that slice of
// the result file, a plain GET the whole file, both through the
// daemon's middleware over a real connection.
func TestResultRanges(t *testing.T) {
	raw, _ := inputTrace(t)
	srv := testServer(t, engine.Config{Workers: 2, MaxShardRequests: 128}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := waitDone(t, ts, submitTrace(t, ts, raw, engine.JobSpec{}))
	entry, _, ok := srv.store.LookupResult(engine.CacheKey(j.Digest, j.Spec))
	if !ok {
		t.Fatal("no result-cache entry for the finished job")
	}
	want, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 200 {
		t.Fatalf("result only %d bytes; the range needs 200", len(want))
	}

	get := func(rangeHdr string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+j.ResultURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := get("bytes=100-199"); code != http.StatusPartialContent || !bytes.Equal(body, want[100:200]) {
		t.Fatalf("range 100-199: status %d, body %q, want 206 and %q", code, body, want[100:200])
	}
	if code, body := get(""); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("plain GET: status %d, %d bytes, want 200 and the %d-byte file", code, len(body), len(want))
	}
}

// TestJobValidationAndErrors covers the API's failure surface. A job
// reads only an uploaded trace: a spec naming a file on the server, as
// input or as output, is refused at submit and never touches that file.
func TestJobValidationAndErrors(t *testing.T) {
	srv := testServer(t, engine.Config{}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	raw, _ := inputTrace(t)
	in := corpusScheme + uploadCorpus(t, ts, raw, "")

	// A path input, a set output and an empty input are refused before
	// the queue; invalid specs are an unknown method, baseline knobs
	// that are not finite numbers above zero (a threshold must also fit
	// a duration), and a fio device that could not sit in an iolog line.
	dir := t.TempDir()
	inPath, outPath := filepath.Join(dir, "in.csv"), filepath.Join(dir, "out.csv")
	if err := os.WriteFile(inPath, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ spec, code, mention string }{
		{`{"in":"` + inPath + `"}`, "bad_spec", "/v1/corpus"},
		{`{"in":"` + in + `","out":"` + outPath + `"}`, "bad_spec", "out"},
		{`{"in":""}`, "missing_input", "/v1/corpus"},
		{`{"method":"nope","in":"` + in + `"}`, "unknown_method", "nope"},
		{`{"method":"acceleration","factor":-3,"in":"` + in + `"}`, "bad_spec", "factor"},
		{`{"method":"fixed-th","threshold_us":-10,"in":"` + in + `"}`, "bad_spec", "threshold_us"},
		{`{"method":"fixed-th","threshold_us":1e16,"in":"` + in + `"}`, "bad_spec", "threshold_us"},
		{`{"outformat":"fio","fio_device":"/dev/sda\nrw=write","in":"` + in + `"}`, "bad_spec", "fio_device"},
		{`{"fio_device":"` + strings.Repeat("d", 4097) + `","in":"` + in + `"}`, "bad_spec", "fio_device"},
	} {
		status, body := doReq(t, ts, http.MethodPost, "/v1/jobs", tc.spec)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.spec, status, body)
		}
		if env := errEnvelope(t, body); env.Code != tc.code || !strings.Contains(env.Message, tc.mention) {
			t.Fatalf("%s: envelope %+v, want %s naming %q", tc.spec, env, tc.code, tc.mention)
		}
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("a refused spec created its out path: %v", err)
	}
	// A body over the spec cap is refused before it is decoded.
	big := `{"in":"` + in + `","name":"` + strings.Repeat("n", maxSpecBytes) + `"}`
	if status, body := doReq(t, ts, http.MethodPost, "/v1/jobs", big); status != http.StatusRequestEntityTooLarge ||
		errEnvelope(t, body).Code != "payload_too_large" {
		t.Fatalf("oversized spec: status %d, want 413 payload_too_large: %s", status, body)
	}
	if total, _, _ := srv.jobs.counts(); total != 0 {
		t.Fatalf("%d refused specs reached the job table", total)
	}
	// Unknown job.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
	// An input too sparse to fit a model -> job fails asynchronously.
	id := submitTrace(t, ts, webmailCSV(t, 40), engine.JobSpec{})
	waitFailed(t, ts, id)
	// Result of a failed job.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("failed-job result: status %d", resp.StatusCode)
	}
	// Health.
	if h := health(t, ts); h["ok"] != true {
		t.Fatalf("health: %+v", h)
	}
}

// TestInMemoryFIOResultCarriesDevice checks that a fio-format job
// serves an iolog embedding the defaulted replay device (the spec is
// normalized at submit).
func TestInMemoryFIOResultCarriesDevice(t *testing.T) {
	raw, _ := inputTrace(t)
	srv := testServer(t, engine.Config{Workers: 1}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := submitTrace(t, ts, raw, engine.JobSpec{OutFormat: "fio"})
	waitDone(t, ts, id)
	body := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
	if !strings.Contains(string(body), "/dev/nvme0n1 open") {
		t.Fatalf("iolog missing defaulted device path:\n%s", string(body[:min(len(body), 200)]))
	}
}

// TestJobList checks listing order (most recent first), the paginated
// shape, and retention: finished jobs pushed past the bound are
// forgotten while their results stay in the result cache.
func TestJobList(t *testing.T) {
	raw, _ := inputTrace(t)
	srv := testServer(t, engine.Config{Workers: 1}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id1 := submitTrace(t, ts, raw, engine.JobSpec{Name: "first"})
	id2 := submitTrace(t, ts, raw, engine.JobSpec{Name: "second"})
	waitDone(t, ts, id1)
	j2 := waitDone(t, ts, id2)

	var page jobPage
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/jobs"), &page); err != nil {
		t.Fatal(err)
	}
	jobs := page.Jobs
	if len(jobs) != 2 || jobs[0].Name != "second" || jobs[1].Name != "first" {
		t.Fatalf("list: %+v", jobs)
	}
	if jobs[0].ID != id2 {
		t.Fatalf("want %s first, got %s", id2, jobs[0].ID)
	}
	if page.NextAfter != "" {
		t.Fatalf("two jobs fit one page, next_after = %q", page.NextAfter)
	}

	// Push both records past the retention bound.
	for i := 0; i < retainJobs; i++ {
		srv.jobs.park(job{ID: fmt.Sprintf("filler-%d", i), State: stateQueued})
	}
	for _, id := range []string{id1, id2} {
		if _, known := srv.jobs.Get(id); known {
			t.Fatalf("prune kept finished job %s beyond the retention bound", id)
		}
		if status, body := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id+"/result", ""); status != http.StatusNotFound {
			t.Fatalf("pruned job %s result: status %d, want 404 unknown_job: %s", id, status, body)
		}
	}
	if _, _, ok := srv.store.LookupResult(engine.CacheKey(j2.Digest, j2.Spec)); !ok {
		t.Fatal("prune deleted a result-cache entry")
	}
}

// TestNewServerFailureLeavesNothing builds servers that cannot start —
// a key file that is not there, a regular file where the data
// directory should be, a directory where the journal should be — and
// checks that each build returns its error and leaves no executor
// goroutine and no open file behind.
func TestNewServerFailureLeavesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(o *options) error
	}{
		{"missing key file", func(o *options) error {
			o.authKeys = filepath.Join(o.dataDir, "no-such-keys")
			return nil
		}},
		{"data directory is a file", func(o *options) error {
			o.dataDir = filepath.Join(o.dataDir, "data")
			return os.WriteFile(o.dataDir, []byte("not a directory\n"), 0o666)
		}},
		{"journal is a directory", func(o *options) error {
			return os.Mkdir(filepath.Join(o.dataDir, "journal.jsonl"), 0o777)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := testOptions(t)
			o.jobs = 4
			if err := c.setup(o); err != nil {
				t.Fatal(err)
			}
			goroutines, files := runtime.NumGoroutine(), openFiles(t)
			if srv, err := newServer(o, obs.NopLogger()); err == nil {
				srv.Close()
				t.Fatal("newServer built a server it cannot run")
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed build, want %d", runtime.NumGoroutine(), goroutines)
				}
			}
			if n := openFiles(t); n != files {
				t.Fatalf("%d open files after the failed build, want %d", n, files)
			}
		})
	}
}

// openFiles counts the process's open file descriptors, skipping the
// test where /proc does not list them.
func openFiles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}
