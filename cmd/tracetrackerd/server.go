package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/apicode"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// corpusScheme prefixes a job input: "corpus:<digest>" names an
// uploaded trace, the only input a daemon job reads.
const corpusScheme = "corpus:"

// maxSpecBytes caps a POST /v1/jobs body. A job spec is a few hundred
// bytes; the cap keeps a client from making the daemon buffer more.
const maxSpecBytes = 1 << 20

// server is the tracetrackerd HTTP API over the job lifecycle (jobs),
// the content-addressed corpus store and its result cache; execute runs
// each job on the engine.
//
// The API lives under /v1 and nowhere else; only /healthz and /metrics
// sit at the root. Every non-2xx response carries the structured
// envelope {"error":{"code":"...","message":"..."}}.
//
//	POST /v1/jobs                  submit a JobSpec, returns {"id": ...}
//	GET  /v1/jobs                  list jobs (most recent first; ?limit=&after=)
//	GET  /v1/jobs/{id}             job status + report
//	GET  /v1/jobs/{id}/result      the reconstructed trace
//	GET  /v1/jobs/{id}/trace       span timeline (?format=perfetto)
//	GET  /v1/devices               reconstruction-target capability catalogue
//	POST /v1/corpus (also PUT)     ingest a trace (streaming body, dedup by digest)
//	GET  /v1/corpus                list ingested traces
//	GET  /v1/corpus/{digest}       entry metadata (unique prefix ok)
//	GET  /v1/corpus/{digest}/data  the trace bytes
//	GET  /healthz                  liveness + queue depth + cache counters
//	GET  /metrics                  Prometheus text-format metrics (root: scrapers)
//	GET  /debug/pprof/...          profiling endpoints (opt-in via -pprof)
//
// Every finished job is one file, the result-cache entry of its input
// digest and spec, and the result endpoint serves that file. Nothing of
// a result stays in memory.
type server struct {
	// opt is the command line the server was built from; handlers read
	// the upload cap, the quotas and the slow-job threshold from it.
	opt  options
	base engine.Config
	mux  *http.ServeMux

	// Observability: every handler runs behind the request-ID/metrics
	// middleware (handler), the engine and corpus hooks feed reg, and
	// /metrics serves it.
	reg      *obs.Registry
	em       *obs.EngineMetrics
	hm       *obs.HTTPMetrics
	log      *slog.Logger
	handler  http.Handler
	started  time.Time
	revision string

	// flight holds recent job timelines for GET /v1/jobs/{id}/trace;
	// slowJobs counts the jobs whose wall time crossed -slow-job.
	flight   *obs.FlightRecorder
	slowJobs *obs.Counter

	// jobs is the job lifecycle; its executors run execute.
	jobs  *jobs
	store *corpus.Store

	// Admission control (see admission.go): identity, rate limits and
	// quotas. rejected labels daemon_rejected_total lazily by
	// {reason,tenant}.
	adm      admission
	rejected func(reason, tenant string) *obs.Counter
}

const (
	rejectedHelp   = "Requests rejected by admission control, by reason and tenant."
	rateTokensHelp = "Global request rate-limit token-bucket level."
)

// newServer builds the daemon o describes, logging to log: it loads
// the key table, opens the corpus store and then the journal under
// o.dataDir, starts the executors and replays the journal. The server
// it returns is ready to serve; on an error nothing is left open or
// running.
func newServer(o *options, log *slog.Logger) (*server, error) {
	adm, err := newAdmission(o)
	if err != nil {
		return nil, err
	}
	store, err := corpus.Open(o.dataDir)
	if err != nil {
		return nil, err
	}
	jnl, recs, err := openJournal(filepath.Join(o.dataDir, "journal.jsonl"), log)
	if err != nil {
		return nil, err
	}
	log.Info("corpus store attached", "dir", o.dataDir, "traces", store.Len())
	executors, queueCap := o.jobs, o.queueCap
	if executors <= 0 {
		executors = 2
	}
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	s := &server{
		opt:      *o,
		base:     engine.Config{Workers: o.parallel, MaxShardRequests: o.maxShard},
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		log:      log,
		started:  time.Now(),
		revision: buildRevision(),
		store:    store,
		adm:      adm,
	}
	s.em = obs.NewEngineMetrics(s.reg)
	s.base.Metrics = s.em // every job engine derives from base and shares the hook
	s.hm = obs.NewHTTPMetrics(s.reg, "daemon")
	s.jobs = newJobs(s.reg, executors, queueCap, jnl, s.execute)
	s.slowJobs = s.reg.Counter("daemon_slow_jobs_total",
		"Jobs whose wall time crossed the slow-job threshold.", nil)
	s.flight = obs.NewFlightRecorder(o.traceRing, s.reg.Counter("daemon_trace_evictions_total",
		"Job timelines evicted from the trace flight recorder.", nil))
	s.reg.GaugeFunc("daemon_trace_recorder_timelines", "Job timelines held in the trace flight recorder.", nil,
		func() float64 { return float64(s.flight.Len()) })
	s.reg.GaugeFunc("daemon_trace_recorder_bytes", "Packed bytes of the job timelines held in the trace flight recorder.", nil,
		func() float64 { return float64(s.flight.Bytes()) })
	// The rejection and rate-limit families get their series on first
	// use, or never; declared now, a fresh daemon's scrape names them.
	s.reg.Declare("daemon_rejected_total", rejectedHelp, "counter")
	s.rejected = func(reason, tenant string) *obs.Counter {
		return s.reg.Counter("daemon_rejected_total", rejectedHelp,
			obs.Labels{"reason": reason, "tenant": tenant})
	}
	s.reg.Declare("daemon_rate_tokens", rateTokensHelp, "gauge")
	obs.RegisterRuntimeMetrics(s.reg)
	s.reg.GaugeFunc("daemon_queue_depth", "Jobs waiting in the executor queue.", nil,
		func() float64 { return float64(len(s.jobs.queue)) })
	s.reg.GaugeFunc("daemon_queue_capacity", "Executor queue capacity; submissions beyond it shed with 429.", nil,
		func() float64 { return float64(queueCap) })
	s.reg.GaugeFunc("daemon_rate_tenants", "Tenants with live rate-limit or jobs/min bucket state.", nil,
		func() float64 { return float64(s.adm.trackedTenants()) })
	s.reg.GaugeFunc("daemon_jobs_running", "Jobs currently executing.", nil,
		func() float64 { _, _, running := s.jobs.counts(); return float64(running) })
	s.reg.GaugeFunc("daemon_uptime_seconds", "Seconds since the daemon started.", nil,
		func() float64 { return time.Since(s.started).Seconds() })
	if b := adm.global; b != nil {
		s.reg.GaugeFunc("daemon_rate_tokens", rateTokensHelp, obs.Labels{"scope": "global"}, b.level)
	}
	store.SetMetrics(obs.NewCorpusMetrics(s.reg))
	s.reg.GaugeFunc("corpus_traces", "Traces in the corpus catalogue.", nil,
		func() float64 { return float64(store.Len()) })
	// The middleware chain: obs middleware (request IDs, metrics,
	// logging), then admission (serveAdmitted), then the route mux.
	s.handler = obs.Middleware(log, s.hm, http.HandlerFunc(s.serveAdmitted))
	s.mountRoutes()
	if restored, requeued := s.jobs.Replay(recs, store); restored > 0 {
		log.Info("journal replayed", "jobs", restored, "requeued", requeued)
	}
	return s, nil
}

// apiRoute is one entry in the daemon's route table.
type apiRoute struct {
	method string
	path   string // path relative to /v1, e.g. "/jobs/{id}"
	h      http.HandlerFunc
	doc    string // one line for the README's route table
}

// routes is the single source of the daemon's API surface — the
// contract test walks this same table, so a route cannot be mounted
// without being covered.
func (s *server) routes() []apiRoute {
	return []apiRoute{
		{"POST", "/jobs", s.handleSubmit, "Submit a job spec; answers 202 with the job's `id`, `status_url` and `trace_id`"},
		{"GET", "/jobs", s.handleList, "Jobs, newest first: `?limit=` (default 100, max 1000), `?after=<id>`; `next_after` is the next page's cursor"},
		{"GET", "/jobs/{id}", s.handleStatus, "Status (`queued`, `running`, `done`, `failed`), timestamps, report, `cached`"},
		{"GET", "/jobs/{id}/result", s.handleResult, "The reconstructed trace: the job's result-cache file, ranges included"},
		{"GET", "/jobs/{id}/trace", s.handleTrace, "The finished job's span timeline; `?format=perfetto` for Chrome trace events"},
		{"GET", "/devices", s.handleDevices, "Every target with its aliases, pipeline and config knobs"},
		{"POST", "/corpus", s.handleCorpusIngest, "Ingest the body as a trace (`?format=`, else sniffed); dedup by sha256"},
		{"PUT", "/corpus", s.handleCorpusIngest, "The same as `POST`"},
		{"GET", "/corpus", s.handleCorpusList, "Stored traces with their summaries"},
		{"GET", "/corpus/{digest}", s.handleCorpusInfo, "One entry (any unique digest prefix); `HEAD` for a pre-upload dedup check"},
		{"GET", "/corpus/{digest}/data", s.handleCorpusData, "The stored trace bytes"},
	}
}

// mountRoutes wires the route table into the mux: each route under
// /v1, plus enveloped 405 fallbacks for known paths and an enveloped
// 404 for everything else. /healthz and /metrics stay at the root —
// operational endpoints that load balancers and Prometheus scrapers
// have configured by path.
func (s *server) mountRoutes() {
	allow := map[string][]string{}
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.method+" /v1"+rt.path, rt.h)
		allow["/v1"+rt.path] = append(allow["/v1"+rt.path], rt.method)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	allow["/healthz"] = []string{"GET"}
	allow["/metrics"] = []string{"GET"}
	// Method-less fallbacks: a known path with the wrong method answers
	// an enveloped 405 (ServeMux's own 405 is plain text).
	for path, methods := range allow {
		ms := strings.Join(methods, ", ")
		s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", ms)
			httpError(w, http.StatusMethodNotAllowed, apicode.MethodNotAllowed,
				fmt.Errorf("method %s not allowed (allow: %s)", r.Method, ms))
		})
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, apicode.NotFound,
			fmt.Errorf("no route %s %s; the API lives under /v1", r.Method, r.URL.Path))
	})
	// -pprof mounts the net/http/pprof handlers (off by default:
	// profiles expose internals). They sit behind the same middleware
	// as the API, so scrapes are logged and counted under
	// route="/debug/pprof/".
	if s.opt.pprofOn {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// serveAdmitted sits between the obs middleware and the route mux:
// it authenticates the request, applies the request rate limits, and
// binds the tenant to the context before dispatching. /healthz and
// /metrics bypass admission — load balancers and scrapers are
// configured by path and carry no credentials.
func (s *server) serveAdmitted(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
		s.mux.ServeHTTP(w, r)
		return
	}
	tenant := anonTenant
	if s.adm.auth != nil {
		t, ok := s.adm.auth.lookup(apiKeyFrom(r))
		if !ok {
			s.reject(w, "unauthorized", tenant, http.StatusUnauthorized, apicode.Unauthorized,
				fmt.Errorf("missing or unknown API key (send Authorization: Bearer <key> or X-API-Key)"))
			return
		}
		tenant = t
	}
	if b := s.adm.global; b != nil {
		if ok, wait := b.take(); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			s.reject(w, "rate_limited", tenant, http.StatusTooManyRequests, apicode.RateLimited,
				fmt.Errorf("global request rate limit exceeded"))
			return
		}
	}
	if b := s.adm.tenants.get(tenant); b != nil {
		if ok, wait := b.take(); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			s.reject(w, "rate_limited", tenant, http.StatusTooManyRequests, apicode.RateLimited,
				fmt.Errorf("tenant %q request rate limit exceeded", tenant))
			return
		}
	}
	// Bind the tenant in place on the shared request value (the same
	// idiom ServeMux uses for r.Pattern): a WithContext copy here would
	// hide the matched pattern from the obs middleware's route metrics.
	*r = *r.WithContext(withTenant(r.Context(), tenant))
	s.mux.ServeHTTP(w, r)
}

// reject answers an admission rejection: counts it under
// daemon_rejected_total{reason,tenant} and writes the error envelope.
func (s *server) reject(w http.ResponseWriter, reason, tenant string, status int, code apicode.Code, err error) {
	s.rejected(reason, tenant).Inc()
	httpError(w, status, code, err)
}

// buildRevision is the VCS revision stamped into the binary ("dev"
// outside a git build) — surfaced in /healthz so an operator can tell
// which build answered.
func buildRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "dev"
}

// ServeHTTP implements http.Handler: every request passes through the
// request-ID / logging / metrics middleware before the route mux.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close is CloseGrace without a deadline.
func (s *server) Close() { s.CloseGrace(0) }

// CloseGrace is jobs.Close: a drain bounded by d (<=0 = forever).
func (s *server) CloseGrace(d time.Duration) bool { return s.jobs.Close(d) }

// execute runs one job on the engine and returns its finish record and
// result file. A job whose result is in the result cache short-circuits;
// the job's frozen tracer parks in the flight recorder however it ends,
// and is rendered here only for the slow-job log line.
func (s *server) execute(j job) (journalRecord, string) {
	s.log.Info("job started", "job", j.ID, "name", j.Name, "method", j.Spec.Method)
	// Each job records into its own tracer on an engine config derived
	// from the shared base.
	tracer := obs.NewTracer(j.ID+" "+j.Name, 0, j.traceParent)
	cfg := s.base
	cfg.Trace = tracer
	var res *engine.JobResult
	var err error
	hit := false
	spec := j.Spec
	if spec.In, err = s.store.BlobPath(j.Digest); err == nil {
		res, hit, err = engine.RunJobCached(cfg, spec, j.Digest, s.store)
	}

	fin := time.Now()
	wall := fin.Sub(*j.Started)
	tracer.Finish()
	s.flight.Add(j.ID, tracer)
	traceID := tracer.Context().TraceID
	rec := journalRecord{Op: journalDone, ID: j.ID, Time: fin, TraceID: traceID}
	path := ""
	if err != nil {
		rec.Op, rec.Error = journalFail, err.Error()
		s.log.Warn("job failed", "job", j.ID, "error", err, "duration", wall)
	} else {
		path, rec.Cached, rec.Report = res.OutPath, hit, newJobReport(res.Report)
		s.log.Info("job finished", "job", j.ID, "cached", hit, "duration", wall)
	}
	if s.opt.slowJob > 0 && wall >= s.opt.slowJob {
		s.slowJobs.Inc()
		s.log.Warn("slow job", "job", j.ID, "duration", wall,
			"threshold", s.opt.slowJob, "trace_id", traceID,
			"slowest_spans", obs.SummarizeSpans(tracer.Snapshot().SlowestSpans(5)))
	}
	return rec, path
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Unknown keys are ignored, so specs of earlier versions still
	// decode: "stream", "parallel" (workers are the operator's
	// -parallel, never a client's) and "reorder_window" (arrival order
	// is the input format's).
	var spec engine.JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, "payload_too_large", tenantFrom(r.Context()), http.StatusRequestEntityTooLarge, apicode.PayloadTooLarge,
				fmt.Errorf("job spec exceeds the %d-byte cap", maxSpecBytes))
			return
		}
		httpError(w, http.StatusBadRequest, apicode.BadJSON, fmt.Errorf("bad job spec: %w", err))
		return
	}
	// A job reads an uploaded trace and its result lands in the result
	// cache: a spec naming a file on the server is refused here, before
	// the queue, so no such path is ever opened, stat'ed or created.
	rest, ok := strings.CutPrefix(spec.In, corpusScheme)
	switch {
	case spec.In == "":
		httpError(w, http.StatusBadRequest, apicode.MissingInput,
			errors.New(`job needs an input: "in":"corpus:<digest>" of a trace uploaded to POST /v1/corpus`))
		return
	case !ok:
		httpError(w, http.StatusBadRequest, apicode.BadSpec,
			fmt.Errorf(`in %q is not an uploaded trace: upload it to POST /v1/corpus and submit "in":"corpus:<digest>"`, spec.In))
		return
	case spec.Out != "":
		httpError(w, http.StatusBadRequest, apicode.BadSpec,
			fmt.Errorf("out %q: a job's result is served at /v1/jobs/{id}/result (out is a tracetracker CLI field)", spec.Out))
		return
	}
	e, err := s.store.Resolve(rest)
	if err != nil {
		httpError(w, http.StatusNotFound, apicode.UnknownTrace, err)
		return
	}
	// A sniffing informat means "infer it": the ingested format is
	// authoritative.
	if !trace.Sniffs(spec.InFormat) && spec.InFormat != e.Format {
		httpError(w, http.StatusBadRequest, apicode.FormatConflict,
			fmt.Errorf("informat %q conflicts with ingested format %q", spec.InFormat, e.Format))
		return
	}
	spec.InFormat = e.Format
	// Canonicalize to the full digest so the persisted spec is
	// self-describing and replay-stable.
	spec.In = corpusScheme + e.Digest
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		specError(w, err)
		return
	}
	tenant := tenantFrom(r.Context())
	// Quotas gate valid submits before the queue: a tenant at its own
	// limit is that tenant's problem (403), not server overload.
	if b := s.adm.jobs.get(tenant); b != nil {
		if ok, wait := b.take(); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			s.reject(w, "quota_jobs_per_min", tenant, http.StatusForbidden, apicode.QuotaExceeded,
				fmt.Errorf("tenant %q exceeded its %d jobs/min quota", tenant, s.opt.quotaJobsPerMin))
			return
		}
	}
	j, err := s.jobs.Submit(spec, e.Digest, tenant, obs.TraceContextFrom(r.Context()), s.opt.quotaJobs)
	if err != nil {
		s.submitError(w, tenant, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": j.ID, "status_url": "/v1/jobs/" + j.ID, "trace_id": j.TraceID})
}

// submitError maps a Submit refusal onto the error contract.
func (s *server) submitError(w http.ResponseWriter, tenant string, err error) {
	switch {
	case errors.Is(err, errClosed):
		httpError(w, http.StatusServiceUnavailable, apicode.ShuttingDown, err)
	case errors.Is(err, errQuota):
		s.reject(w, "quota_concurrent_jobs", tenant, http.StatusForbidden, apicode.QuotaExceeded, err)
	case errors.Is(err, errQueueFull):
		// Shed rather than block: 429 with a load-derived Retry-After
		// (time for the executors to work off the backlog), so a
		// well-behaved client backs off proportionally to the overload.
		w.Header().Set("Retry-After", retryAfterSeconds(s.jobs.retryAfter()))
		s.reject(w, "queue_full", tenant, http.StatusTooManyRequests, apicode.QueueFull,
			fmt.Errorf("job queue full (%d queued); retry after the backlog drains", cap(s.jobs.queue)))
	}
}

// List pagination bounds: pages default to defaultListLimit jobs and
// never exceed maxListLimit, whatever the client asks for.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultListLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, apicode.BadLimit,
				fmt.Errorf("limit must be a positive integer, got %q", v))
			return
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	// The cursor is the ID of the last job on the previous page.
	afterSeq := -1
	if after := q.Get("after"); after != "" {
		n, ok := jobSeq(after)
		if !ok {
			httpError(w, http.StatusBadRequest, apicode.BadCursor,
				fmt.Errorf("after must be a job ID like job-42, got %q", after))
			return
		}
		afterSeq = n
	}
	// List copies under the lock and the page marshals outside it:
	// serializing hundreds of retained records must not stall workers
	// flipping job states.
	writeMarshaled(w, s.jobs.List(afterSeq, limit))
}

// lookupJob copies the job the path names, or answers 404 unknown_job.
func (s *server) lookupJob(w http.ResponseWriter, r *http.Request) (job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, apicode.UnknownJob, fmt.Errorf("unknown job %q", id))
	}
	return j, ok
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeMarshaled(w, j)
	}
}

// handleResult serves a finished job's result. Every finished job is
// a file, its result-cache entry, so this is http.ServeFile and nothing
// else: ranges and conditional requests come
// with it, and the body goes out by sendfile, because the obs
// middleware's writer forwards ReadFrom to the connection.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	switch {
	case !ok:
	case j.State != stateDone:
		httpError(w, http.StatusConflict, apicode.JobNotFinished, fmt.Errorf("job is %s", j.State))
	case j.outPath == "":
		// Only a journal-restored job can be here: its result-cache
		// entry was gone at replay.
		httpError(w, http.StatusNotFound, apicode.NotFound,
			fmt.Errorf("job %s finished in an earlier run and its result file is gone; resubmit it", j.ID))
	default:
		http.ServeFile(w, r, j.outPath)
	}
}

// handleTrace serves a finished job's span timeline from the flight
// recorder: the JobTrace JSON tree by default, the Chrome trace-event
// form (loadable in Perfetto) with ?format=perfetto. Still-queued or
// running jobs answer 409; jobs whose timeline the recorder has
// evicted (or that finished in an earlier process) answer 410.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if !terminal(j.State) {
		httpError(w, http.StatusConflict, apicode.JobNotFinished,
			fmt.Errorf("job is %s; its timeline lands when it finishes", j.State))
		return
	}
	jt, ok := s.flight.Get(j.ID)
	if !ok {
		httpError(w, http.StatusGone, apicode.TraceEvicted,
			fmt.Errorf("trace evicted from the flight recorder (raise -trace-ring)"))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, jt)
	case "perfetto", "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.trace.json", j.ID))
		obs.WriteChromeTrace(w, jt)
	default:
		httpError(w, http.StatusBadRequest, apicode.BadFormat,
			fmt.Errorf("unknown trace format %q (json, perfetto)", format))
	}
}

func (s *server) handleCorpusIngest(w http.ResponseWriter, r *http.Request) {
	tenant := tenantFrom(r.Context())
	var body io.Reader = r.Body
	if s.opt.maxUpload > 0 {
		// MaxBytesReader aborts the streaming ingest mid-body; the
		// store's staging discipline removes the partial staged file.
		body = http.MaxBytesReader(w, r.Body, s.opt.maxUpload)
	}
	if q := s.opt.quotaCorpus; q > 0 {
		used := s.tenantBytes(tenant)
		if used >= q {
			s.reject(w, "quota_corpus_bytes", tenant, http.StatusForbidden, apicode.QuotaExceeded,
				fmt.Errorf("tenant %q has %d corpus bytes stored (quota %d)", tenant, used, q))
			return
		}
		body = &quotaReader{r: body, remaining: q - used}
	}
	entry, created, err := s.store.IngestAs(body, r.URL.Query().Get("format"), tenant)
	if err != nil {
		s.corpusIngestError(w, tenant, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	json.NewEncoder(w).Encode(map[string]any{"created": created, "entry": entry})
}

// corpusIngestError classifies an ingest failure onto the error
// contract. Cap and quota sentinels come from the upload's reader,
// which fails while the store stages the body; the store reports that
// wrapped in ErrBadTrace, so they are checked before the chain they
// share.
func (s *server) corpusIngestError(w http.ResponseWriter, tenant string, err error) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		s.reject(w, "payload_too_large", tenant, http.StatusRequestEntityTooLarge, apicode.PayloadTooLarge,
			fmt.Errorf("upload exceeds the %d-byte cap", s.opt.maxUpload))
	case errors.Is(err, errCorpusQuota):
		s.reject(w, "quota_corpus_bytes", tenant, http.StatusForbidden, apicode.QuotaExceeded,
			fmt.Errorf("upload would take tenant %q past its corpus-bytes quota (%d)", tenant, s.opt.quotaCorpus))
	case errors.Is(err, corpus.ErrBadTrace):
		// Undecodable uploads are the client's fault; anything else
		// (disk full, unwritable store) is ours.
		httpError(w, http.StatusBadRequest, apicode.BadTrace, err)
	default:
		httpError(w, http.StatusInternalServerError, apicode.Internal, err)
	}
}

// tenantBytes is the corpus bytes charged to tenant: the entries it
// ingested first, and for the anonymous tenant also the entries that
// carry no tenant.
func (s *server) tenantBytes(tenant string) int64 {
	n := s.store.TenantBytes(tenant)
	if tenant == anonTenant {
		n += s.store.TenantBytes("")
	}
	return n
}

func (s *server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.store.Entries())
}

func (s *server) handleCorpusInfo(w http.ResponseWriter, r *http.Request) {
	e, err := s.store.Resolve(r.PathValue("digest"))
	if err != nil {
		httpError(w, http.StatusNotFound, apicode.UnknownTrace, err)
		return
	}
	writeJSON(w, e)
}

func (s *server) handleCorpusData(w http.ResponseWriter, r *http.Request) {
	rc, e, err := s.store.OpenBlob(r.PathValue("digest"))
	if err != nil {
		httpError(w, http.StatusNotFound, apicode.UnknownTrace, err)
		return
	}
	defer rc.Close()
	if e.Format == "bin" {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Header().Set("Content-Length", strconv.FormatInt(e.Size, 10))
	// CopyN hands the writer a LimitedReader over the *os.File, which
	// the connection sends by sendfile; io.Copy(w, rc) would take the
	// file's WriteTo and copy through a user-space buffer instead.
	io.CopyN(w, rc, e.Size)
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	total, queued, running := s.jobs.counts()
	writeJSON(w, map[string]any{
		"ok":             true,
		"jobs":           total,
		"queued":         queued,
		"running":        running,
		"executed":       s.jobs.executed.Value(),
		"cache_hits":     s.jobs.cached.Value(),
		"corpus":         s.store.Len(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"revision":       s.revision,
	})
}

// handleDevices serves the reconstruction-target capability catalogue:
// every device the engine accepts, its aliases, per-device knobs and
// which execution pipeline it runs on. The catalogue comes from the
// same registry JobSpec validation uses, so discovery cannot drift
// from enforcement.
func (s *server) handleDevices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"devices": engine.Devices()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeMarshaled is writeJSON without the trailing newline.
func writeMarshaled(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, apicode.Internal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// apiError is the envelope every non-2xx response carries.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// httpError writes the structured error envelope: a stable
// machine-readable code plus a human-readable message.
func httpError(w http.ResponseWriter, status int, code apicode.Code, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{"error": {Code: code.String(), Message: err.Error()}})
}

// specError maps a JobSpec rejection to its envelope: typed engine
// validation errors carry their own stable code and name the
// offending field; anything else is a generic bad spec.
func specError(w http.ResponseWriter, err error) {
	var ve *engine.ValidationError
	if errors.As(err, &ve) {
		httpError(w, http.StatusBadRequest, ve.Code, ve)
		return
	}
	httpError(w, http.StatusBadRequest, apicode.BadSpec, err)
}
