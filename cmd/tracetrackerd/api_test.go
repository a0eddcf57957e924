package main

// v1 API contract tests: the route table mounts everything under /v1
// and nothing unversioned, every non-2xx response carries the
// structured error envelope with its stable code, the device
// catalogue matches validation, and job listing paginates with a
// cursor that stays stable while new jobs arrive.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/hoststack"
	"repro/internal/infer"
	"repro/internal/trace"
)

// errEnvelope decodes a response body as the error envelope, failing
// the test if the shape is wrong.
func errEnvelope(t *testing.T, body []byte) apiError {
	t.Helper()
	var e struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("response is not an error envelope: %v\n%s", err, body)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return e.Error
}

// doReq issues method+path with an optional body and returns status
// and body bytes.
func doReq(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
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
	return resp.StatusCode, data
}

// fillRoute substitutes concrete (unknown) values for path wildcards.
func fillRoute(path string) string {
	path = strings.ReplaceAll(path, "{id}", "job-999999")
	path = strings.ReplaceAll(path, "{digest}", "ffffffffffff")
	return path
}

// TestRouteContract is the CI route smoke (run by name, race-checked
// in the workflow): it walks the daemon's own route table, so a route
// cannot be added without being covered here. Every v1 route must be
// mounted (never falling through to the catch-all 404), answer JSON,
// and on failure answer the structured envelope; the same paths
// without the /v1 prefix must not be mounted at all.
func TestRouteContract(t *testing.T) {
	srv := dataServer(t, filepath.Join(t.TempDir(), "data"))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	check := func(method, path string) {
		t.Helper()
		status, body := doReq(t, ts, method, path, "")
		if status == http.StatusOK || status == http.StatusAccepted || status == http.StatusCreated {
			return
		}
		env := errEnvelope(t, body)
		if env.Code == "not_found" || env.Code == "method_not_allowed" {
			t.Fatalf("%s %s fell through to the fallback handler: %s %s", method, path, env.Code, env.Message)
		}
	}
	// mountRoutes joins a path's methods into its Allow header as they
	// come, so the table must not repeat a (method, path) pair.
	mounted := map[string]bool{}
	for _, rt := range srv.routes() {
		if mounted[rt.method+" "+rt.path] {
			t.Fatalf("route table lists %s %s twice", rt.method, rt.path)
		}
		mounted[rt.method+" "+rt.path] = true
		check(rt.method, "/v1"+fillRoute(rt.path))
	}
	// Root-level operational endpoints.
	for _, path := range []string{"/healthz", "/metrics"} {
		if status, body := doReq(t, ts, http.MethodGet, path, ""); status != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, status, body)
		}
	}

	// The corpus entry on the wire: the upload reply and the info route
	// carry the model fitted at ingest (Tsdev-unknown uploads only), and
	// HEAD on the info route is the pre-upload dedup check — 200 for a
	// held digest, 404 otherwise, no body sent either way.
	status, body := doReq(t, ts, http.MethodPost, "/v1/corpus", string(webmailCSV(t, 2000)))
	var ack struct {
		Entry struct {
			Digest string
			Model  *infer.Model
		}
	}
	if err := json.Unmarshal(body, &ack); status != http.StatusCreated || err != nil || ack.Entry.Model == nil {
		t.Fatalf("upload reply: status %d, %s (%v); want 201 with entry.model", status, body, err)
	}
	var info struct{ Model *infer.Model }
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/corpus/"+ack.Entry.Digest), &info); err != nil || info.Model == nil ||
		modelBits(info.Model) != modelBits(ack.Entry.Model) {
		t.Fatalf("GET /v1/corpus/{digest}: model %+v (%v), want the upload reply's %+v", info.Model, err, ack.Entry.Model)
	}
	for digest, want := range map[string]int{ack.Entry.Digest: http.StatusOK, "ffffffffffff": http.StatusNotFound} {
		resp, err := http.Head(ts.URL + "/v1/corpus/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("HEAD /v1/corpus/%s: status %d, want %d", digest, resp.StatusCode, want)
		}
	}

	// Wrong method on a known path: enveloped 405, not the mux default.
	status, body = doReq(t, ts, http.MethodDelete, "/v1/jobs", "")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/jobs: status %d, want 405", status)
	}
	if env := errEnvelope(t, body); env.Code != "method_not_allowed" {
		t.Fatalf("405 envelope code %q", env.Code)
	}
	// Unknown path: enveloped 404.
	status, body = doReq(t, ts, http.MethodGet, "/v2/jobs", "")
	if status != http.StatusNotFound {
		t.Fatalf("GET /v2/jobs: status %d, want 404", status)
	}
	if env := errEnvelope(t, body); env.Code != "not_found" {
		t.Fatalf("404 envelope code %q", env.Code)
	}
	// No unversioned API route: the pre-v1 paths answer the same
	// enveloped 404, whose message points the client at /v1.
	for _, rt := range []struct{ method, path string }{
		{http.MethodGet, "/jobs"}, {http.MethodPost, "/corpus"}, {http.MethodGet, "/devices"},
	} {
		status, body = doReq(t, ts, rt.method, rt.path, "")
		if status != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404: %s", rt.method, rt.path, status, body)
		}
		if env := errEnvelope(t, body); env.Code != "not_found" || !strings.Contains(env.Message, "/v1") {
			t.Fatalf("%s %s: envelope %+v, want not_found naming /v1", rt.method, rt.path, env)
		}
	}
}

// TestErrorEnvelopes is the table-driven lock on the failure surface:
// each error path answers its documented status and stable code, and
// validation messages name the offending field.
func TestErrorEnvelopes(t *testing.T) {
	srv := dataServer(t, filepath.Join(t.TempDir(), "data"))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The fit ingest now runs never turns an upload away: a Tsdev-unknown
	// trace too sparse to fit, and an unsorted one, are both accepted, and
	// their jobs fail with the errors they always failed with; they
	// exercise the not-finished paths.
	sparseDigest := uploadCorpus(t, ts, webmailCSV(t, 40), "csv")
	sparseID := postJob(t, ts, engine.JobSpec{In: corpusScheme + sparseDigest})
	if j := waitFailed(t, ts, sparseID); !strings.Contains(j.Error, infer.ErrTooSparse.Error()) {
		t.Fatalf("job on a 40-request inference input: %q, want %q", j.Error, infer.ErrTooSparse)
	}
	unsorted := decodeCSV(t, webmailCSV(t, 2000))
	unsorted.Requests[500].Arrival = unsorted.Requests[1500].Arrival
	unsortedID := submitTrace(t, ts, encodeAs(t, "csv", unsorted), engine.JobSpec{})
	if j := waitFailed(t, ts, unsortedID); !strings.Contains(j.Error, trace.ErrUnsorted.Error()) {
		t.Fatalf("job on an unsorted inference input: %q, want %q", j.Error, trace.ErrUnsorted)
	}

	in := corpusScheme + sparseDigest
	cases := []struct {
		name    string
		method  string
		path    string
		body    string
		status  int
		code    string
		mention string // substring the message must contain ("" = any)
	}{
		{"bad json", "POST", "/v1/jobs", "{not json", 400, "bad_json", ""},
		{"missing input", "POST", "/v1/jobs", `{}`, 400, "missing_input", "in"},
		{"path input", "POST", "/v1/jobs", `{"in":"/srv/trace.csv"}`, 400, "bad_spec", "/v1/corpus"},
		{"output path", "POST", "/v1/jobs", `{"in":"` + in + `","out":"/srv/out.csv"}`, 400, "bad_spec", "out"},
		{"unknown method", "POST", "/v1/jobs", `{"in":"` + in + `","method":"nope"}`, 400, "unknown_method", "nope"},
		{"unknown device", "POST", "/v1/jobs", `{"in":"` + in + `","device":"floppy"}`, 400, "unknown_device", "floppy"},
		{"unknown format", "POST", "/v1/jobs", `{"in":"` + in + `","outformat":"xml"}`, 400, "unknown_format", "xml"},
		{"config mismatch", "POST", "/v1/jobs", `{"in":"` + in + `","device":"array","ftl_config":{"blocks":128}}`, 400, "config_mismatch", "ftl_config"},
		{"bad ftl knob", "POST", "/v1/jobs", `{"in":"` + in + `","device":"ftl","ftl_config":{"blocks":4}}`, 400, "bad_device_config", "ftl_config.blocks"},
		{"bad host knob", "POST", "/v1/jobs", `{"in":"` + in + `","device":"host","host_config":{"dirty_high_water":2}}`, 400, "bad_device_config", "host_config.dirty_high_water"},
		{"bad factor", "POST", "/v1/jobs", `{"in":"` + in + `","method":"acceleration","factor":-3}`, 400, "bad_spec", "factor"},
		{"bad threshold", "POST", "/v1/jobs", `{"in":"` + in + `","method":"fixed-th","threshold_us":-10}`, 400, "bad_spec", "threshold_us"},
		{"bad fio device", "POST", "/v1/jobs", `{"in":"` + in + `","outformat":"fio","fio_device":"/dev/sda /dev/sdb"}`, 400, "bad_spec", "fio_device"},
		{"oversized spec", "POST", "/v1/jobs", `{"in":"` + in + `","name":"` + strings.Repeat("n", maxSpecBytes) + `"}`, 413, "payload_too_large", "1048576"},
		{"unknown corpus input", "POST", "/v1/jobs", `{"in":"corpus:ffffffffffff"}`, 404, "unknown_trace", ""},
		{"format conflict", "POST", "/v1/jobs", `{"in":"` + in + `","informat":"bin"}`, 400, "format_conflict", `"bin"`},
		{"unknown job status", "GET", "/v1/jobs/job-999999", "", 404, "unknown_job", "job-999999"},
		{"unknown job result", "GET", "/v1/jobs/job-999999/result", "", 404, "unknown_job", ""},
		{"unknown job trace", "GET", "/v1/jobs/job-999999/trace", "", 404, "unknown_job", ""},
		{"too sparse to fit", "GET", "/v1/jobs/" + sparseID + "/result", "", 409, "job_not_finished", "failed"},
		{"unsorted inference input", "GET", "/v1/jobs/" + unsortedID + "/result", "", 409, "job_not_finished", "failed"},
		{"bad limit", "GET", "/v1/jobs?limit=zero", "", 400, "bad_limit", "zero"},
		{"bad cursor", "GET", "/v1/jobs?after=first", "", 400, "bad_cursor", "first"},
		{"unknown corpus entry", "GET", "/v1/corpus/ffffffffffff", "", 404, "unknown_trace", ""},
		{"unknown corpus data", "GET", "/v1/corpus/ffffffffffff/data", "", 404, "unknown_trace", ""},
		{"undecodable upload", "POST", "/v1/corpus", "garbage\n", 400, "bad_trace", ""},
		{"bad trace format", "GET", "/v1/jobs/" + sparseID + "/trace?format=svg", "", 400, "bad_format", "svg"},
		{"wrong method", "DELETE", "/v1/corpus", "", 405, "method_not_allowed", "DELETE"},
		{"unknown route", "GET", "/v1/nope", "", 404, "not_found", "/v1/nope"},
	}
	for _, tc := range cases {
		status, body := doReq(t, ts, tc.method, tc.path, tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.status, body)
			continue
		}
		env := errEnvelope(t, body)
		if env.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, env.Code, tc.code, env.Message)
		}
		if tc.mention != "" && !strings.Contains(env.Message, tc.mention) {
			t.Errorf("%s: message %q does not mention %q", tc.name, env.Message, tc.mention)
		}
	}

	// A valid submit after Close: the daemon is draining.
	srv.Close()
	status, body := doReq(t, ts, http.MethodPost, "/v1/jobs", `{"in":"`+in+`"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: status %d: %s", status, body)
	}
	if env := errEnvelope(t, body); env.Code != "shutting_down" {
		t.Fatalf("submit after Close: code %q", env.Code)
	}
}

// TestDevicesEndpoint checks the capability catalogue: the registry
// serves every engine target with aliases, pipeline class and knobs,
// so clients can discover ftl_config/host_config without trial 400s.
func TestDevicesEndpoint(t *testing.T) {
	srv := testServer(t, engine.Config{}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := doReq(t, ts, http.MethodGet, "/v1/devices", "")
	if status != http.StatusOK {
		t.Fatalf("devices: status %d: %s", status, body)
	}
	var got struct {
		Devices []engine.DeviceInfo `json:"devices"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	byName := map[string]engine.DeviceInfo{}
	for _, d := range got.Devices {
		byName[d.Name] = d
	}
	ftl, ok := byName["ftl"]
	if !ok || ftl.ConfigField != "ftl_config" || len(ftl.Knobs) == 0 {
		t.Fatalf("ftl entry: %+v", ftl)
	}
	host, ok := byName["host"]
	if !ok || host.ConfigField != "host_config" || len(host.Knobs) == 0 {
		t.Fatalf("host entry: %+v", host)
	}
	if ftl.Pipeline != engine.PipelineStateful || host.Pipeline != engine.PipelineStateful {
		t.Fatalf("ftl/host pipeline: %q / %q", ftl.Pipeline, host.Pipeline)
	}
	arr, ok := byName["array"]
	if !ok || arr.Pipeline != engine.PipelineShardParallel || !arr.Default {
		t.Fatalf("array entry: %+v", arr)
	}
	for _, d := range got.Devices {
		for _, k := range d.Knobs {
			if k.Name == "" || k.Type == "" {
				t.Fatalf("device %s: malformed knob %+v", d.Name, k)
			}
		}
	}
	// Every advertised knob name is a JSON key of its config (clients
	// send the names as keys: a decoder that refuses unknown fields takes
	// it), and the config built with the knob at its advertised default
	// is the target's default config. Engine targets never keep the
	// stack's block log.
	defaultHost := hoststack.DefaultConfig()
	defaultHost.NoBlockLog = true
	for _, tc := range []struct {
		info    engine.DeviceInfo
		decoded func(*json.Decoder) (any, error)
		want    any
	}{
		{ftl, func(dec *json.Decoder) (any, error) {
			var spec engine.FTLSpec
			err := dec.Decode(&spec)
			return spec.Config(), err
		}, device.DefaultFTLDeviceConfig()},
		{host, func(dec *json.Decoder) (any, error) {
			var spec engine.HostSpec
			err := dec.Decode(&spec)
			return spec.Config(), err
		}, defaultHost},
	} {
		for _, k := range tc.info.Knobs {
			value := k.Default
			if k.Type == "string" {
				value = strconv.Quote(value)
			}
			dec := json.NewDecoder(strings.NewReader(fmt.Sprintf(`{%q:%s}`, k.Name, value)))
			dec.DisallowUnknownFields()
			cfg, err := tc.decoded(dec)
			if err != nil {
				t.Fatalf("%s knob %s=%s: %v", tc.info.ConfigField, k.Name, value, err)
			}
			if cfg != tc.want {
				t.Fatalf("%s knob %s at its advertised default %s builds %+v, want the default %+v",
					tc.info.ConfigField, k.Name, value, cfg, tc.want)
			}
		}
	}
}

// TestJobListPagination locks the cursor contract: pages walk newest
// to oldest, next_after continues exactly where the page ended, and —
// the regression this exists for — a cursor taken before new
// submissions still yields the same older jobs afterwards, because
// the cursor orders by the job's monotonic sequence number rather
// than page offset.
func TestJobListPagination(t *testing.T) {
	srv := testServer(t, engine.Config{}, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Jobs on an input too sparse to fit settle (failed) almost
	// immediately; listing does not care about the state.
	sparse := webmailCSV(t, 40)
	submit := func(n int) []string {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = submitTrace(t, ts, sparse, engine.JobSpec{Name: fmt.Sprintf("p%d", i)})
		}
		return ids
	}
	ids := submit(5) // job-1..job-5

	listPage := func(query string) jobPage {
		t.Helper()
		status, body := doReq(t, ts, http.MethodGet, "/v1/jobs"+query, "")
		if status != http.StatusOK {
			t.Fatalf("list%s: status %d: %s", query, status, body)
		}
		var page jobPage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	page1 := listPage("?limit=2")
	if len(page1.Jobs) != 2 || page1.Jobs[0].ID != ids[4] || page1.Jobs[1].ID != ids[3] {
		t.Fatalf("page 1: %+v", page1.Jobs)
	}
	if page1.NextAfter != ids[3] {
		t.Fatalf("page 1 next_after = %q, want %q", page1.NextAfter, ids[3])
	}

	// New submissions land between page fetches — the cursor must not
	// shift the older pages.
	submit(3) // job-6..job-8

	page2 := listPage("?limit=2&after=" + page1.NextAfter)
	if len(page2.Jobs) != 2 || page2.Jobs[0].ID != ids[2] || page2.Jobs[1].ID != ids[1] {
		t.Fatalf("page 2 after new submissions: %+v", page2.Jobs)
	}
	if page2.NextAfter != ids[1] {
		t.Fatalf("page 2 next_after = %q, want %q", page2.NextAfter, ids[1])
	}
	page3 := listPage("?limit=2&after=" + page2.NextAfter)
	if len(page3.Jobs) != 1 || page3.Jobs[0].ID != ids[0] {
		t.Fatalf("page 3: %+v", page3.Jobs)
	}
	if page3.NextAfter != "" {
		t.Fatalf("page 3 next_after = %q, want end of listing", page3.NextAfter)
	}

	// The default (no limit) returns everything here; the cap is
	// documented as defaultListLimit.
	all := listPage("")
	if len(all.Jobs) != 8 || all.NextAfter != "" {
		t.Fatalf("unpaged list: %d jobs, next_after %q", len(all.Jobs), all.NextAfter)
	}
	if defaultListLimit != 100 || maxListLimit != 1000 {
		t.Fatalf("documented pagination caps changed: default %d, max %d", defaultListLimit, maxListLimit)
	}
}
