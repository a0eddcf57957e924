package main

import (
	"bytes"
	"encoding/json"
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
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeInput synthesizes a small Tsdev-known trace file and returns
// its path plus the expected reconstruction.
func writeInput(t *testing.T, dir string) (string, *trace.Trace) {
	t.Helper()
	p, ok := workload.Lookup("ikki")
	if !ok {
		t.Fatal("ikki profile missing")
	}
	app := workload.Generate(p, workload.GenOptions{Ops: 400, Seed: 1})
	old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	old.Name = "ikki-web"

	path := filepath.Join(dir, "in.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, old); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The daemon decodes the CSV, so the expectation must too.
	rt, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	oldRT, err := trace.ReadFormat("csv", rt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Reconstruct(oldRT, device.NewArray(device.DefaultArrayConfig()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return path, want
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

// TestSubmitStatusResultRoundTrip is the acceptance scenario: submit a
// job, poll status, fetch the result, and check it equals the
// sequential pipeline's reconstruction.
func TestSubmitStatusResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	inPath, want := writeInput(t, dir)
	srv := newServer(engine.Config{Workers: 4, MinShardRequests: 32, MaxShardRequests: 128, MinIdleGap: 500 * time.Microsecond}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := postJob(t, ts, engine.JobSpec{In: inPath, Parallel: 4})
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

// TestStreamingJobToFile runs a path job writing to its out path and
// fetches the result from disk via the result endpoint.
func TestStreamingJobToFile(t *testing.T) {
	dir := t.TempDir()
	inPath, want := writeInput(t, dir)
	outPath := filepath.Join(dir, "out.csv")
	srv := newServer(engine.Config{Workers: 2, MinShardRequests: 32, MaxShardRequests: 128, MinIdleGap: 500 * time.Microsecond}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := postJob(t, ts, engine.JobSpec{In: inPath, Out: outPath})
	j := waitDone(t, ts, id)
	if j.OutPath != outPath {
		t.Fatalf("out path: %q", j.OutPath)
	}
	data, err := os.ReadFile(outPath)
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
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result from file: status %d", resp.StatusCode)
	}
}

// TestResultRanges checks the README's promise that /result honours
// byte ranges: a Range request answers 206 with exactly that slice of
// the result file, a plain GET the whole file, both through the
// daemon's middleware over a real connection.
func TestResultRanges(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeInput(t, dir)
	outPath := filepath.Join(dir, "out.csv")
	srv := newServer(engine.Config{Workers: 2, MinShardRequests: 32, MaxShardRequests: 128, MinIdleGap: 500 * time.Microsecond}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := postJob(t, ts, engine.JobSpec{In: inPath, Out: outPath})
	waitDone(t, ts, id)
	want, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 200 {
		t.Fatalf("result only %d bytes; the range needs 200", len(want))
	}

	get := func(rangeHdr string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
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

// TestJobValidationAndErrors covers the API's failure surface.
func TestJobValidationAndErrors(t *testing.T) {
	srv := newServer(engine.Config{}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Invalid specs: an unknown method, and baseline knobs that are not
	// finite numbers above zero (a threshold must also fit a duration).
	for _, spec := range []string{
		`{"method":"nope","in":"x"}`,
		`{"method":"acceleration","factor":-3,"in":"x"}`,
		`{"method":"fixed-th","threshold_us":-10,"in":"x"}`,
		`{"method":"fixed-th","threshold_us":1e16,"in":"x"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", spec, resp.StatusCode)
		}
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
	// Missing input file -> job fails asynchronously.
	id := postJob(t, ts, engine.JobSpec{In: "/nonexistent/trace.csv"})
	deadline := time.Now().Add(10 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j job
		json.NewDecoder(r2.Body).Decode(&j)
		r2.Body.Close()
		if j.State == stateFailed {
			break
		}
		if j.State == stateDone {
			t.Fatal("job with missing input succeeded")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
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
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["ok"] != true {
		t.Fatalf("health: %+v", health)
	}
}

// TestInMemoryFIOResultCarriesDevice checks that a fio-format job
// without an output path (spooled by the daemon) serves an iolog
// embedding the defaulted replay device (the spec is normalized at
// submit).
func TestInMemoryFIOResultCarriesDevice(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeInput(t, dir)
	srv := newServer(engine.Config{Workers: 1}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := postJob(t, ts, engine.JobSpec{In: inPath, OutFormat: "fio"})
	waitDone(t, ts, id)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "/dev/nvme0n1 open") {
		t.Fatalf("iolog missing defaulted device path:\n%s", string(body[:min(len(body), 200)]))
	}
}

// TestJobList checks listing order (most recent first) and the
// paginated shape.
func TestJobList(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeInput(t, dir)
	srv := newServer(engine.Config{Workers: 1}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id1 := postJob(t, ts, engine.JobSpec{In: inPath, Name: "first"})
	id2 := postJob(t, ts, engine.JobSpec{In: inPath, Name: "second"})
	waitDone(t, ts, id1)
	waitDone(t, ts, id2)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var page jobPage
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil {
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
}
