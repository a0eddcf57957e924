package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/obstest"
)

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hidden")
	log.Info("shown", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log output is not one JSON record: %q", buf.String())
	}
	if rec["msg"] != "shown" || rec["k"] != "v" {
		t.Fatalf("record: %v", rec)
	}
	if _, err := NewLogger(io.Discard, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(io.Discard, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestMiddlewareRequestIDAndMetrics(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, "t")
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))

	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	})
	h := Middleware(log, hm, mux)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/job-7", nil))
	hdr := rr.Header().Get("X-Request-ID")
	if hdr == "" {
		t.Fatal("response carries no X-Request-ID")
	}
	// The completion line is the request's one log line: it carries the
	// header's ID and the route that matched.
	line, _, _ := strings.Cut(logBuf.String(), "\n")
	if !strings.Contains(line, "msg=request") || !strings.Contains(line, "request_id="+hdr) ||
		!strings.Contains(line, "route=\"GET /jobs/{id}\"") {
		t.Fatalf("completion log line %q does not carry request_id=%s and the route", line, hdr)
	}

	// Unmatched request lands under its own label and logs a warning.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/nope", nil))

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`t_requests_total{code="200",route="GET /jobs/{id}"} 1`,
		`t_requests_total{code="404",route="unmatched"} 1`,
		`t_request_seconds_count{route="GET /jobs/{id}"} 1`,
		"t_requests_in_flight 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if _, err := obstest.ParseExposition([]byte(out)); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
}

func TestRequestIDsDistinct(t *testing.T) {
	a, b := nextRequestID(), nextRequestID()
	if a == b {
		t.Fatalf("request ids collide: %s", a)
	}
}

// TestMiddlewareUnmatchedRoute is the cardinality regression test for
// the "unmatched" bucket: requests matching no mux pattern — probe
// paths, typos, non-mux handlers — must aggregate under one
// route="unmatched" label, never mint per-path series.
func TestMiddlewareUnmatchedRoute(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, "t")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /real", func(w http.ResponseWriter, r *http.Request) {})
	h := Middleware(NopLogger(), hm, mux)

	for _, path := range []string{"/nope", "/admin.php", "/nope/deeper", "/.env"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, rr.Code)
		}
	}
	// A handler that is not a ServeMux never sets r.Pattern; those
	// requests land in the same bucket instead of an empty label.
	plain := Middleware(NopLogger(), hm, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) }))
	plain.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/whatever", nil))

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`t_requests_total{code="404",route="unmatched"} 4`,
		`t_requests_total{code="418",route="unmatched"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	for _, leak := range []string{"/nope", "/admin.php", "/.env", "/whatever", `route=""`} {
		if strings.Contains(out, leak) {
			t.Errorf("per-path label leaked into metrics (%q):\n%s", leak, out)
		}
	}
}

func TestMiddlewareTraceparent(t *testing.T) {
	var got TraceContext
	h := Middleware(NopLogger(), nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = TraceContextFrom(r.Context())
	}))

	// A valid incoming traceparent is bound to the request and echoed.
	incoming := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Traceparent", incoming)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("handler saw trace context %+v", got)
	}
	if echo := rr.Header().Get("Traceparent"); echo != incoming {
		t.Fatalf("traceparent echo: %q, want %q", echo, incoming)
	}

	// No (or malformed) traceparent: a fresh valid one is minted.
	req = httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Traceparent", "garbage")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	minted, ok := ParseTraceparent(rr.Header().Get("Traceparent"))
	if !ok {
		t.Fatalf("minted traceparent invalid: %q", rr.Header().Get("Traceparent"))
	}
	if minted != got {
		t.Fatalf("response traceparent %+v != handler context %+v", minted, got)
	}
	if minted.TraceID == "0af7651916cd43dd8448eb211c80319c" {
		t.Fatal("malformed traceparent adopted instead of replaced")
	}
}

// readFromRecorder is a response writer with the connection's fast
// paths: ReadFrom (sendfile, on a real connection) and a write
// deadline, each recording that it was reached.
type readFromRecorder struct {
	*httptest.ResponseRecorder
	readFroms int
	deadline  time.Time
}

func (w *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	w.readFroms++
	return io.Copy(w.ResponseRecorder, src)
}

func (w *readFromRecorder) SetWriteDeadline(d time.Time) error {
	w.deadline = d
	return nil
}

// TestMiddlewareForwardsReadFrom checks that the middleware's writer
// hides neither the inner writer's ReadFrom (io.Copy from a file must
// reach the connection's sendfile) nor the writer itself from
// http.NewResponseController, and that a body sent by ReadFrom is
// logged with its status and size like one sent by Write.
func TestMiddlewareForwardsReadFrom(t *testing.T) {
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, nil))
	body := strings.Repeat("0123456789", 1000)
	deadline := time.Unix(1700000000, 0)
	var deadlineErr error
	h := Middleware(log, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadlineErr = http.NewResponseController(w).SetWriteDeadline(deadline)
		// A LimitedReader has no WriteTo, so io.Copy takes the writer's
		// ReadFrom, as http.ServeFile's io.CopyN does.
		io.Copy(w, io.LimitReader(strings.NewReader(body), int64(len(body))))
	}))

	inner := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(inner, httptest.NewRequest("GET", "/blob", nil))
	if inner.readFroms != 1 {
		t.Fatalf("inner ReadFrom reached %d times, want 1", inner.readFroms)
	}
	if inner.Code != http.StatusOK || inner.Body.String() != body {
		t.Fatalf("response: status %d, %d bytes", inner.Code, inner.Body.Len())
	}
	if deadlineErr != nil || !inner.deadline.Equal(deadline) {
		t.Fatalf("ResponseController did not reach the inner writer: err %v, deadline %v", deadlineErr, inner.deadline)
	}
	logs := logBuf.String()
	for _, want := range []string{"status=200", fmt.Sprintf("bytes=%d", len(body))} {
		if !strings.Contains(logs, want) {
			t.Errorf("completion log missing %q:\n%s", want, logs)
		}
	}
}
