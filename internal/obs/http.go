package obs

// Structured logging and HTTP instrumentation: a slog constructor
// following the level/format flag idiom, a request-ID middleware that
// logs every request with its ID and trace, and per-route
// count/latency/in-flight metrics keyed on the ServeMux pattern that
// matched.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// NewLogger builds a slog.Logger writing to w at the given level
// ("debug", "info", "warn", "error") and format ("text", "json").
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (text, json)", format)
	}
}

// NopLogger returns a logger that discards everything, for a server
// that must stay silent, such as one built in a test.
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

type ctxKey int

const ctxKeyTrace ctxKey = 0

// reqIDPrefix makes request IDs unique across daemon restarts without
// per-request entropy; the atomic sequence makes them unique within a
// process.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "req"
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDSeq atomic.Uint64
)

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqIDSeq.Add(1))
}

// TraceContextFrom returns the W3C trace position the middleware
// bound to the request — the incoming traceparent when the client
// sent a valid one, else the one minted for the response. Zero
// outside an instrumented request.
func TraceContextFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(ctxKeyTrace).(TraceContext)
	return tc
}

// statusWriter captures the response status and size. It forwards
// ReadFrom, so a file the handler copies out (http.ServeFile, io.CopyN
// of an *os.File) still reaches the connection's sendfile, and Unwrap,
// so http.NewResponseController finds the writer underneath.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	var n int64
	var err error
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(src)
	} else {
		n, err = io.Copy(w.ResponseWriter, src)
	}
	w.bytes += n
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTPMetrics instruments a handler with per-route request count
// (labelled by status code), latency histograms and an in-flight
// gauge. Routes are the http.ServeMux patterns that matched
// (r.Pattern), so the label set stays bounded by the registered API
// surface; unmatched requests land under route="unmatched".
type HTTPMetrics struct {
	reg      *Registry
	prefix   string
	inFlight *Gauge
}

const (
	requestsHelp = "HTTP requests served, by route pattern and status code."
	latencyHelp  = "HTTP request latency, by route pattern."
)

// NewHTTPMetrics registers the in-flight gauge and declares the count
// and latency families, whose series register lazily as routes are
// first served, and returns the per-route instrumenter.
func NewHTTPMetrics(reg *Registry, prefix string) *HTTPMetrics {
	reg.Declare(prefix+"_requests_total", requestsHelp, "counter")
	reg.Declare(prefix+"_request_seconds", latencyHelp, "histogram")
	return &HTTPMetrics{
		reg:    reg,
		prefix: prefix,
		inFlight: reg.Gauge(prefix+"_requests_in_flight",
			"HTTP requests currently being served.", nil),
	}
}

func (hm *HTTPMetrics) observe(route string, status int, d time.Duration) {
	hm.reg.Counter(hm.prefix+"_requests_total", requestsHelp,
		Labels{"route": route, "code": strconv.Itoa(status)}).Inc()
	hm.reg.Histogram(hm.prefix+"_request_seconds", latencyHelp,
		Labels{"route": route}, DurationBuckets).Observe(d.Seconds())
}

// Middleware wraps next with request IDs, per-request slog logging
// and (when hm is non-nil) per-route metrics. Every response carries
// an X-Request-ID header, and the request's completion line logs the
// same ID.
//
// W3C trace context: a valid incoming traceparent header is accepted
// and echoed back; otherwise a fresh trace position is minted and
// echoed, so every response names the trace the server filed the
// request under. Handlers read it with TraceContextFrom.
//
// Completion log levels: 5xx at Error, 4xx at Warn, health and
// metrics scrapes at Debug (they would otherwise dominate the log at
// any scrape interval), everything else at Info.
func Middleware(log *slog.Logger, hm *HTTPMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := nextRequestID()
		tc, ok := ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tc = NewTraceContext()
		}
		reqLog := log.With("request_id", id, "trace_id", tc.TraceID)
		ctx := context.WithValue(r.Context(), ctxKeyTrace, tc)
		w.Header().Set("X-Request-ID", id)
		w.Header().Set("Traceparent", tc.Traceparent())
		sw := &statusWriter{ResponseWriter: w}
		if hm != nil {
			hm.inFlight.Inc()
		}
		r = r.WithContext(ctx)
		next.ServeHTTP(sw, r)
		if hm != nil {
			hm.inFlight.Dec()
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		// r.Pattern is filled in by the ServeMux that matched, on the
		// request value we handed it — not the caller's original.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		elapsed := time.Since(start)
		if hm != nil {
			hm.observe(route, status, elapsed)
		}
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case status >= 400:
			level = slog.LevelWarn
		case r.URL.Path == "/healthz" || r.URL.Path == "/metrics":
			level = slog.LevelDebug
		}
		reqLog.Log(ctx, level, "request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", status,
			"bytes", sw.bytes,
			"duration", elapsed,
			"remote", r.RemoteAddr,
		)
	})
}
