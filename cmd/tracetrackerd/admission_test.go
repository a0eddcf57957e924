package main

// Admission-control tests: the API-key table and constant-time lookup,
// the non-loopback startup guard, per-tenant quotas (corpus bytes,
// concurrent jobs, jobs/min) answering 403 while other tenants proceed,
// request rate limits answering 429, and the upload size cap answering
// 413 with the staged temp file gone. The quota and rate-limit tests
// always pair the rejected tenant with a second tenant whose identical
// request succeeds — isolation, not just rejection.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs/obstest"
	"repro/internal/trace"
	"repro/internal/workload"
)

// keyFile writes an inline tenant:key table to a file for -auth-keys.
func keyFile(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(path, []byte(lines), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// generateTrace synthesizes the fixed-seed Tsdev-known test input: an
// MSNFS-profile application executed on the paper's OLD device.
func generateTrace(requests int) *trace.Trace {
	p, _ := workload.Lookup("MSNFS")
	app := workload.Generate(p, workload.GenOptions{Ops: requests, Seed: workload.TraceSeed("tracebench", 0)})
	return app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
}

// corpusBlob synthesizes a small CSV trace blob; distinct names yield
// distinct digests.
func corpusBlob(t *testing.T, name string, requests int) []byte {
	t.Helper()
	tr := generateTrace(requests)
	tr.Name = name
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corpusSpec ingests a small blob straight into srv's store and returns
// the JSON spec of a job on it.
func corpusSpec(t *testing.T, srv *server, name string) []byte {
	t.Helper()
	e, _, err := srv.store.Ingest(bytes.NewReader(corpusBlob(t, name, 64)), "csv")
	if err != nil {
		t.Fatal(err)
	}
	return []byte(`{"in":"corpus:` + e.Digest + `"}`)
}

// authedReq issues method+path with an optional Bearer key, returning
// status, headers and body.
func authedReq(t *testing.T, ts *httptest.Server, method, path, key string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// scrapeMetrics fetches and parses /metrics.
func scrapeMetrics(t *testing.T, ts *httptest.Server) []obstest.Sample {
	t.Helper()
	samples, err := obstest.ParseExposition(getBody(t, ts.URL+"/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// tmpEntryCount counts staged files under the store's tmp/ directory.
func tmpEntryCount(t *testing.T, dataDir string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

func TestParseAuthKeys(t *testing.T) {
	tbl, err := parseAuthKeys(strings.NewReader("# comment\n\n  alice : key-a \nbob:key-b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tenant, ok := tbl.lookup("key-a"); !ok || tenant != "alice" {
		t.Fatalf("lookup(key-a) = %q, %v", tenant, ok)
	}
	if tenant, ok := tbl.lookup("key-b"); !ok || tenant != "bob" {
		t.Fatalf("lookup(key-b) = %q, %v", tenant, ok)
	}
	if _, ok := tbl.lookup("key-c"); ok {
		t.Fatal("unknown key must not resolve")
	}
	if _, ok := tbl.lookup(""); ok {
		t.Fatal("empty key must not resolve")
	}
	if _, err := parseAuthKeys(strings.NewReader("alice-no-colon\n")); err == nil {
		t.Fatal("malformed line must error")
	}
	if _, err := parseAuthKeys(strings.NewReader(":key\n")); err == nil {
		t.Fatal("empty tenant must error")
	}
	if _, err := parseAuthKeys(strings.NewReader("# only comments\n")); err == nil {
		t.Fatal("empty table must error")
	}
}

func TestLoadAuthKeys(t *testing.T) {
	// File form.
	tbl, err := loadAuthKeys(keyFile(t, "alice:file-key\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tenant, ok := tbl.lookup("file-key"); !ok || tenant != "alice" {
		t.Fatalf("file table lookup = %q, %v", tenant, ok)
	}

	// Env form (inline, comma-separated).
	t.Setenv(authKeysEnv, "alice:env-a,bob:env-b")
	tbl, err = loadAuthKeys("")
	if err != nil {
		t.Fatal(err)
	}
	if tenant, ok := tbl.lookup("env-b"); !ok || tenant != "bob" {
		t.Fatalf("env table lookup = %q, %v", tenant, ok)
	}

	// Neither configured: anonymous mode.
	t.Setenv(authKeysEnv, "")
	tbl, err = loadAuthKeys("")
	if err != nil || tbl != nil {
		t.Fatalf("anonymous mode: table %v, err %v", tbl, err)
	}
}

// TestAddrGuard locks the startup refusal: a non-loopback listen
// address needs auth keys or an explicit -insecure.
func TestAddrGuard(t *testing.T) {
	cases := []struct {
		addr           string
		auth, insecure bool
		wantErr        bool
	}{
		{"127.0.0.1:8080", false, false, false},
		{"localhost:9090", false, false, false},
		{"[::1]:8080", false, false, false},
		{"0.0.0.0:8080", false, false, true},
		{"10.1.2.3:80", false, false, true},
		{":8080", false, false, true}, // empty host = all interfaces
		{"0.0.0.0:8080", true, false, false},
		{"0.0.0.0:8080", false, true, false},
	}
	for _, tc := range cases {
		err := checkAddrGuard(tc.addr, tc.auth, tc.insecure)
		if (err != nil) != tc.wantErr {
			t.Errorf("checkAddrGuard(%q, auth=%v, insecure=%v) = %v, wantErr %v",
				tc.addr, tc.auth, tc.insecure, err, tc.wantErr)
		}
	}
}

// TestAuthOverHTTP covers the wire surface: missing and unknown keys
// answer 401 with the envelope, both credential headers work, and
// /healthz and /metrics stay open for probes and scrapers.
func TestAuthOverHTTP(t *testing.T) {
	o := testOptions(t)
	o.authKeys = keyFile(t, "alice:ka-111\nbob:kb-222")
	srv := startServer(t, o)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, _, body := authedReq(t, ts, http.MethodGet, "/v1/jobs", "", nil)
	if status != http.StatusUnauthorized {
		t.Fatalf("no key: status %d, want 401", status)
	}
	if env := errEnvelope(t, body); env.Code != "unauthorized" {
		t.Fatalf("no key: code %q, want unauthorized", env.Code)
	}
	if status, _, _ = authedReq(t, ts, http.MethodGet, "/v1/jobs", "wrong-key", nil); status != http.StatusUnauthorized {
		t.Fatalf("bad key: status %d, want 401", status)
	}
	if status, _, _ = authedReq(t, ts, http.MethodGet, "/v1/jobs", "ka-111", nil); status != http.StatusOK {
		t.Fatalf("bearer key: status %d, want 200", status)
	}

	// The X-API-Key header is an equivalent credential.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "kb-222")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Key: status %d, want 200", resp.StatusCode)
	}

	// Probes and scrapers carry no credentials.
	health(t, ts)
	samples := scrapeMetrics(t, ts)
	if v, ok := obstest.SampleValue(samples, "daemon_rejected_total",
		map[string]string{"reason": "unauthorized", "tenant": anonTenant}); !ok || v < 2 {
		t.Fatalf("unauthorized rejections counter = %v, %v; want >= 2", v, ok)
	}
}

// TestCorpusBytesQuota: a tenant may fill its byte quota exactly, the
// next upload is refused upfront, a streaming upload crossing the
// quota mid-body is cut off with its staged temp file removed — and a
// second tenant's identical uploads succeed throughout.
func TestCorpusBytesQuota(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	blobA := corpusBlob(t, "quota-a", 64)
	blobB := corpusBlob(t, "quota-b", 64)
	blobBig := corpusBlob(t, "quota-big", 2048)
	if len(blobBig) <= len(blobA) {
		t.Fatalf("fixture: big blob (%d bytes) must exceed the quota (%d)", len(blobBig), len(blobA))
	}
	o := testOptions(t)
	o.dataDir, o.authKeys = dataDir, keyFile(t, "alice:ka\nbob:kb\ncarol:kc")
	o.quotaCorpus = int64(len(blobA))
	srv := startServer(t, o)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// An upload ending exactly at the quota is allowed.
	if status, _, body := authedReq(t, ts, http.MethodPost, "/v1/corpus", "ka", blobA); status != http.StatusCreated {
		t.Fatalf("exact-fit upload: status %d: %s", status, body)
	}
	// At quota, the next upload is refused before any bytes stream.
	status, _, body := authedReq(t, ts, http.MethodPost, "/v1/corpus", "ka", blobB)
	if status != http.StatusForbidden {
		t.Fatalf("over-quota upload: status %d, want 403: %s", status, body)
	}
	if env := errEnvelope(t, body); env.Code != "quota_exceeded" {
		t.Fatalf("over-quota upload: code %q, want quota_exceeded", env.Code)
	}
	// The same request from another tenant succeeds.
	if status, _, body := authedReq(t, ts, http.MethodPost, "/v1/corpus", "kb", blobB); status != http.StatusCreated {
		t.Fatalf("second tenant's upload: status %d: %s", status, body)
	}
	// A fresh tenant streaming past the quota mid-body is cut off.
	status, _, body = authedReq(t, ts, http.MethodPost, "/v1/corpus", "kc", blobBig)
	if status != http.StatusForbidden {
		t.Fatalf("mid-stream quota cut: status %d, want 403: %s", status, body)
	}
	if env := errEnvelope(t, body); env.Code != "quota_exceeded" {
		t.Fatalf("mid-stream quota cut: code %q, want quota_exceeded", env.Code)
	}

	// The aborted ingest left no staged temp file, and only the two
	// accepted blobs are catalogued.
	if n := tmpEntryCount(t, dataDir); n != 0 {
		t.Fatalf("%d staged temp files left after quota rejections", n)
	}
	if n := srv.store.Len(); n != 2 {
		t.Fatalf("store holds %d entries, want 2", n)
	}
	samples := scrapeMetrics(t, ts)
	for _, tenant := range []string{"alice", "carol"} {
		if v, ok := obstest.SampleValue(samples, "daemon_rejected_total",
			map[string]string{"reason": "quota_corpus_bytes", "tenant": tenant}); !ok || v != 1 {
			t.Errorf("quota_corpus_bytes rejections for %s = %v, %v; want 1", tenant, v, ok)
		}
	}
}

// TestConcurrentJobsQuota: a tenant with a live job is refused a
// second one while another tenant's identical submit is accepted.
func TestConcurrentJobsQuota(t *testing.T) {
	o := testOptions(t)
	o.authKeys, o.quotaJobs = keyFile(t, "alice:ka\nbob:kb"), 1
	srv := startServer(t, o)
	defer srv.Close()
	spec := corpusSpec(t, srv, "next")
	// Park a live job owned by alice: quota counting is over job
	// states, so a synthetic running job pins her at the limit without
	// a timing-dependent long reconstruction.
	srv.jobs.park(job{
		ID: "job-1", State: stateRunning, Tenant: "alice",
		Submitted: time.Now(), Spec: engine.JobSpec{In: "corpus:parked"},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, _, body := authedReq(t, ts, http.MethodPost, "/v1/jobs", "ka", spec)
	if status != http.StatusForbidden {
		t.Fatalf("at-quota submit: status %d, want 403: %s", status, body)
	}
	env := errEnvelope(t, body)
	if env.Code != "quota_exceeded" || !strings.Contains(env.Message, "concurrent-jobs") {
		t.Fatalf("at-quota submit: envelope %q %q", env.Code, env.Message)
	}
	if status, _, body := authedReq(t, ts, http.MethodPost, "/v1/jobs", "kb", spec); status != http.StatusAccepted {
		t.Fatalf("second tenant's submit: status %d: %s", status, body)
	}
}

// TestJobsPerMinQuota: the submission-rate quota refuses a tenant's
// burst overflow with Retry-After while another tenant submits freely.
func TestJobsPerMinQuota(t *testing.T) {
	o := testOptions(t)
	o.authKeys, o.quotaJobsPerMin = keyFile(t, "alice:ka\nbob:kb"), 2
	srv := startServer(t, o)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := corpusSpec(t, srv, "burst")
	for i := 0; i < 2; i++ {
		if status, _, body := authedReq(t, ts, http.MethodPost, "/v1/jobs", "ka", spec); status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i+1, status, body)
		}
	}
	status, hdr, body := authedReq(t, ts, http.MethodPost, "/v1/jobs", "ka", spec)
	if status != http.StatusForbidden {
		t.Fatalf("burst overflow: status %d, want 403: %s", status, body)
	}
	env := errEnvelope(t, body)
	if env.Code != "quota_exceeded" || !strings.Contains(env.Message, "jobs/min") {
		t.Fatalf("burst overflow: envelope %q %q", env.Code, env.Message)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("burst overflow: missing Retry-After")
	}
	if status, _, body := authedReq(t, ts, http.MethodPost, "/v1/jobs", "kb", spec); status != http.StatusAccepted {
		t.Fatalf("second tenant's submit: status %d: %s", status, body)
	}
}

// TestRateLimits: the global and per-tenant request buckets answer 429
// with Retry-After once the burst drains, probes bypass them, and one
// tenant draining its bucket does not affect another.
func TestRateLimits(t *testing.T) {
	t.Run("global", func(t *testing.T) {
		o := testOptions(t)
		o.rate = 1 // burst 2
		srv := startServer(t, o)
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		for i := 0; i < 2; i++ {
			if status, _, _ := authedReq(t, ts, http.MethodGet, "/v1/jobs", "", nil); status != http.StatusOK {
				t.Fatalf("request %d: status %d", i+1, status)
			}
		}
		status, hdr, body := authedReq(t, ts, http.MethodGet, "/v1/jobs", "", nil)
		if status != http.StatusTooManyRequests {
			t.Fatalf("drained bucket: status %d, want 429: %s", status, body)
		}
		if env := errEnvelope(t, body); env.Code != "rate_limited" {
			t.Fatalf("drained bucket: code %q, want rate_limited", env.Code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("drained bucket: missing Retry-After")
		}
		health(t, ts) // probes bypass the limiter
		samples := scrapeMetrics(t, ts)
		if v, ok := obstest.SampleValue(samples, "daemon_rejected_total",
			map[string]string{"reason": "rate_limited", "tenant": anonTenant}); !ok || v < 1 {
			t.Fatalf("rate_limited rejections = %v, %v; want >= 1", v, ok)
		}
		if _, ok := obstest.SampleValue(samples, "daemon_rate_tokens", map[string]string{"scope": "global"}); !ok {
			t.Fatal("daemon_rate_tokens gauge missing")
		}
	})
	t.Run("per-tenant", func(t *testing.T) {
		o := testOptions(t)
		o.authKeys = keyFile(t, "alice:ka\nbob:kb")
		o.tenantRate = 1 // burst 2 per tenant
		srv := startServer(t, o)
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		for i := 0; i < 2; i++ {
			if status, _, _ := authedReq(t, ts, http.MethodGet, "/v1/jobs", "ka", nil); status != http.StatusOK {
				t.Fatalf("request %d: status %d", i+1, status)
			}
		}
		if status, _, _ := authedReq(t, ts, http.MethodGet, "/v1/jobs", "ka", nil); status != http.StatusTooManyRequests {
			t.Fatalf("alice's drained bucket: status %d, want 429", status)
		}
		if status, _, _ := authedReq(t, ts, http.MethodGet, "/v1/jobs", "kb", nil); status != http.StatusOK {
			t.Fatalf("bob after alice's drain: status %d, want 200", status)
		}
	})
}

// TestUploadTooLarge: a body over -max-upload-bytes aborts the
// streaming ingest with an enveloped 413, leaving no staged temp file
// and no catalogue entry.
func TestUploadTooLarge(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	o := testOptions(t)
	o.dataDir, o.maxUpload = dataDir, 256
	srv := startServer(t, o)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blob := corpusBlob(t, "too-big", 256)
	if len(blob) <= 256 {
		t.Fatalf("fixture: blob (%d bytes) must exceed the %d-byte cap", len(blob), srv.opt.maxUpload)
	}
	status, _, body := authedReq(t, ts, http.MethodPost, "/v1/corpus", "", blob)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413: %s", status, body)
	}
	if env := errEnvelope(t, body); env.Code != "payload_too_large" {
		t.Fatalf("oversized upload: code %q, want payload_too_large", env.Code)
	}
	if n := tmpEntryCount(t, dataDir); n != 0 {
		t.Fatalf("%d staged temp files left after the aborted upload", n)
	}
	if n := srv.store.Len(); n != 0 {
		t.Fatalf("store holds %d entries, want 0", n)
	}
	if v, ok := obstest.SampleValue(scrapeMetrics(t, ts), "daemon_rejected_total",
		map[string]string{"reason": "payload_too_large", "tenant": anonTenant}); !ok || v != 1 {
		t.Fatalf("payload_too_large rejections = %v, %v; want 1", v, ok)
	}
}
