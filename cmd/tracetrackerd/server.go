package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apicode"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Job states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// corpusScheme prefixes job inputs that name an ingested trace by
// digest instead of a server-side path.
const corpusScheme = "corpus:"

// job is one queued batch reconstruction and its lifecycle record.
type job struct {
	ID        string         `json:"id"`
	Name      string         `json:"name"`
	State     string         `json:"state"`
	Error     string         `json:"error,omitempty"`
	Submitted time.Time      `json:"submitted"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	Spec      engine.JobSpec `json:"spec"`
	// Digest is the corpus input digest for corpus: jobs ("" for
	// server-side path inputs).
	Digest string `json:"digest,omitempty"`
	// Tenant is the submitting identity (anonTenant in anonymous
	// mode); concurrent-jobs quotas count a tenant's live jobs by it.
	Tenant string `json:"tenant,omitempty"`
	// Cached reports the result came from the result cache without a
	// reconstruction.
	Cached    bool       `json:"cached,omitempty"`
	Report    *jobReport `json:"report,omitempty"`
	OutPath   string     `json:"out_path,omitempty"`
	ResultURL string     `json:"result_url,omitempty"`
	// TraceID is the W3C trace the job's span timeline files under —
	// the submitting request's trace, so a client propagating
	// traceparent finds its job in its own distributed trace. TraceURL
	// appears once a timeline is in the flight recorder.
	TraceID  string `json:"trace_id,omitempty"`
	TraceURL string `json:"trace_url,omitempty"`

	// traceParent is the submit request's trace position (parent of
	// the job's root span). Zero for journal-restored jobs, which keep
	// only the trace ID.
	traceParent obs.TraceContext
}

// jobReport is the JSON projection of an engine report.
type jobReport struct {
	Requests    int64   `json:"requests"`
	Shards      int     `json:"shards,omitempty"`
	Workers     int     `json:"workers"`
	IdleCount   int     `json:"idle_count"`
	IdleTotalUS float64 `json:"idle_total_us"`
	AsyncCount  int     `json:"async_count"`
	BetaMicros  float64 `json:"beta_us_per_sector,omitempty"`
	EtaMicros   float64 `json:"eta_us_per_sector,omitempty"`
	// DeviceStats are the replay target's own end-of-run counters
	// (FTL write amplification, host-stack cache hit rate, ...); empty
	// for targets that report none.
	DeviceStats []device.Stat `json:"device_stats,omitempty"`
}

func newJobReport(r *engine.Report) *jobReport {
	if r == nil {
		return nil
	}
	jr := &jobReport{
		Requests:    r.Requests,
		Shards:      r.Shards,
		Workers:     r.Workers,
		IdleCount:   r.IdleCount,
		IdleTotalUS: float64(r.IdleTotal) / float64(time.Microsecond),
		AsyncCount:  r.AsyncCount,
		DeviceStats: r.DeviceStats,
	}
	if r.Model != nil {
		jr.BetaMicros = r.Model.BetaMicros
		jr.EtaMicros = r.Model.EtaMicros
	}
	return jr
}

// server is the tracetrackerd HTTP API: a bounded pool of job
// executors over the sharded reconstruction engine, backed (when a
// data directory is attached) by the content-addressed corpus store,
// its result cache, and a crash-recovery journal.
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
// Every finished job is a file — the result-cache entry (corpus jobs),
// the spec's out path, or a spool file the daemon assigns to path jobs
// that name none — and the result endpoint serves that file. Nothing
// of a result stays in memory.
const (
	// retainJobs caps job metadata records; the oldest finished jobs
	// beyond it are forgotten entirely, their spool files with them.
	retainJobs = 4096
	// defaultQueueCap bounds the executor queue; submissions beyond it
	// shed with 429 queue_full rather than blocking or growing without
	// bound (-queue overrides).
	defaultQueueCap = 1024
)

type server struct {
	base engine.Config
	mux  *http.ServeMux
	// ingestParallel is the worker count for decoding a staged corpus
	// upload, applied to the store when openData attaches it.
	ingestParallel int

	// Observability: every handler runs behind the request-ID/metrics
	// middleware (handler), the engine and corpus hooks feed reg, and
	// /metrics serves it. log is swapped in by setLogger before serving
	// (NopLogger until then, so embedded/test servers stay silent).
	reg      *obs.Registry
	em       *obs.EngineMetrics
	hm       *obs.HTTPMetrics
	log      *slog.Logger
	handler  http.Handler
	started  time.Time
	revision string

	// Job outcome counters; /healthz reads these, so its executed and
	// cache_hits fields are views of the same registry series.
	jobsExecuted *obs.Counter
	jobsCached   *obs.Counter
	jobsFailed   *obs.Counter
	slowJobs     *obs.Counter

	// flight holds recent job timelines for GET /v1/jobs/{id}/trace;
	// slowJob, when > 0, is the wall-time threshold past which a
	// finished job logs its slowest spans (set before serving).
	flight  *obs.FlightRecorder
	slowJob time.Duration
	// Journal replay counters (set during openData).
	replayedJobs *obs.Counter
	requeuedJobs *obs.Counter

	// store and jnl are attached by openData before serving (nil when
	// the daemon runs without -data); immutable afterwards.
	store *corpus.Store
	jnl   *journal
	// spoolDir holds the results of path jobs submitted without an out
	// path, one file per job ID: <data>/spool, so they survive a restart
	// with the journal that names them, or — without -data (store is
	// nil) — a process temp dir made on first use and removed at Close.
	// guarded by mu
	spoolDir string

	// Admission control (see admission.go): identity, rate limits and
	// quotas, configured before serving. maxUpload caps a corpus upload
	// body in bytes (0 = unlimited) with an enveloped 413. rejected
	// labels daemon_rejected_total lazily by {reason,tenant}.
	adm       admission
	maxUpload int64
	rejected  func(reason, tenant string) *obs.Counter
	// avgJobNs is an EWMA of recent job wall times; queue-full
	// Retry-After derives from it and the backlog.
	avgJobNs  atomic.Int64
	queueCap  int
	executors int

	mu     sync.Mutex
	jobs   map[string]*job // guarded by mu
	order  []string        // guarded by mu
	nextID int             // guarded by mu
	closed bool            // guarded by mu
	// corpusUsed is the per-tenant ingested corpus bytes (rebuilt from
	// entry sidecars by openData, maintained on upload) backing the
	// corpus-bytes quota. guarded by mu
	corpusUsed map[string]int64

	queue chan *job
	wg    sync.WaitGroup
	// stopRequeue aborts a journal-replay enqueue still in progress at
	// shutdown; requeueDone is closed when that enqueue has stopped.
	stopRequeue chan struct{}
	requeueDone chan struct{}
}

// newServer builds a server executing up to concurrent jobs at once,
// each on an engine derived from base.
func newServer(base engine.Config, concurrent int) *server {
	return newServerCap(base, concurrent, defaultQueueCap)
}

// newServerCap is newServer with an explicit executor-queue capacity
// (<=0 = default); overload tests shrink it to force shedding.
func newServerCap(base engine.Config, concurrent, queueCap int) *server {
	if concurrent <= 0 {
		concurrent = 2
	}
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	requeueDone := make(chan struct{})
	close(requeueDone) // no replay in progress until openData
	s := &server{
		base:        base,
		mux:         http.NewServeMux(),
		jobs:        make(map[string]*job),
		corpusUsed:  make(map[string]int64),
		queue:       make(chan *job, queueCap),
		queueCap:    queueCap,
		executors:   concurrent,
		stopRequeue: make(chan struct{}),
		requeueDone: requeueDone,
		started:     time.Now(),
		revision:    buildRevision(),
	}
	s.reg = obs.NewRegistry()
	s.em = obs.NewEngineMetrics(s.reg)
	s.base.Metrics = s.em // every job engine derives from base and shares the hook
	s.hm = obs.NewHTTPMetrics(s.reg, "daemon")
	s.jobsExecuted = s.reg.Counter("daemon_jobs_total",
		"Finished jobs by outcome.", obs.Labels{"outcome": "executed"})
	s.jobsCached = s.reg.Counter("daemon_jobs_total",
		"Finished jobs by outcome.", obs.Labels{"outcome": "cached"})
	s.jobsFailed = s.reg.Counter("daemon_jobs_total",
		"Finished jobs by outcome.", obs.Labels{"outcome": "failed"})
	s.replayedJobs = s.reg.Counter("daemon_journal_replayed_jobs_total",
		"Jobs restored from the journal at startup.", nil)
	s.requeuedJobs = s.reg.Counter("daemon_journal_requeued_jobs_total",
		"Interrupted jobs re-queued from the journal at startup.", nil)
	s.slowJobs = s.reg.Counter("daemon_slow_jobs_total",
		"Jobs whose wall time crossed the slow-job threshold.", nil)
	s.flight = obs.NewFlightRecorder(obs.DefaultFlightRecorderCapacity)
	s.flight.SetEvictionCounter(s.reg.Counter("daemon_trace_evictions_total",
		"Job timelines evicted from the trace flight recorder.", nil))
	s.reg.GaugeFunc("daemon_trace_recorder_timelines", "Job timelines held in the trace flight recorder.", nil,
		func() float64 { return float64(s.flight.Len()) })
	s.rejected = func(reason, tenant string) *obs.Counter {
		return s.reg.Counter("daemon_rejected_total",
			"Requests rejected by admission control, by reason and tenant.",
			obs.Labels{"reason": reason, "tenant": tenant})
	}
	obs.RegisterRuntimeMetrics(s.reg)
	s.reg.GaugeFunc("daemon_queue_depth", "Jobs waiting in the executor queue.", nil,
		func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("daemon_queue_capacity", "Executor queue capacity; submissions beyond it shed with 429.", nil,
		func() float64 { return float64(s.queueCap) })
	s.reg.GaugeFunc("daemon_rate_tenants", "Tenants with live rate-limit or jobs/min bucket state.", nil,
		func() float64 { return float64(s.adm.trackedTenants()) })
	s.reg.GaugeFunc("daemon_jobs_running", "Jobs currently executing.", nil,
		func() float64 { _, running := s.countStates(); return float64(running) })
	s.reg.GaugeFunc("daemon_uptime_seconds", "Seconds since the daemon started.", nil,
		func() float64 { return time.Since(s.started).Seconds() })
	s.setLogger(obs.NopLogger())
	s.mountRoutes()
	for i := 0; i < concurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// apiRoute is one entry in the daemon's route table.
type apiRoute struct {
	method string
	path   string // path relative to /v1, e.g. "/jobs/{id}"
	h      http.HandlerFunc
}

// routes is the single source of the daemon's API surface — the
// contract test walks this same table, so a route cannot be mounted
// without being covered.
func (s *server) routes() []apiRoute {
	return []apiRoute{
		{"POST", "/jobs", s.handleSubmit},
		{"GET", "/jobs", s.handleList},
		{"GET", "/jobs/{id}", s.handleStatus},
		{"GET", "/jobs/{id}/result", s.handleResult},
		{"GET", "/jobs/{id}/trace", s.handleTrace},
		{"GET", "/devices", s.handleDevices},
		{"POST", "/corpus", s.handleCorpusIngest},
		{"PUT", "/corpus", s.handleCorpusIngest},
		{"GET", "/corpus", s.handleCorpusList},
		{"GET", "/corpus/{digest}", s.handleCorpusInfo},
		{"GET", "/corpus/{digest}/data", s.handleCorpusData},
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
}

// setLogger attaches the daemon logger and rebuilds the middleware
// chain around it: obs middleware (request IDs, metrics, logging),
// then admission (serveAdmitted), then the route mux. Call before
// serving traffic.
func (s *server) setLogger(log *slog.Logger) {
	s.log = log
	s.handler = obs.Middleware(log, s.hm, http.HandlerFunc(s.serveAdmitted))
}

// setAuth enables API-key authentication (nil keeps anonymous mode).
// Call before serving traffic.
func (s *server) setAuth(t *authTable) {
	s.adm.auth = t
}

// setRateLimits configures the request-rate token buckets (req/s, 0 =
// unlimited; bursts default to 2× the rate). Call before serving
// traffic.
func (s *server) setRateLimits(globalRate, tenantRate float64) {
	if globalRate > 0 {
		b := newTokenBucket(globalRate, 2*globalRate)
		s.adm.global = b
		s.reg.GaugeFunc("daemon_rate_tokens",
			"Global request rate-limit token-bucket level.",
			obs.Labels{"scope": "global"}, b.level)
	}
	if tenantRate > 0 {
		s.adm.tenantRate = tenantRate
		s.adm.tenantBurst = 2 * tenantRate
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
	if b := s.adm.tenantBucket(tenant); b != nil {
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

// enablePprof mounts the net/http/pprof handlers (opt-in via -pprof:
// profiles expose internals, so they are off by default). They sit
// behind the same middleware as the API, so scrapes are logged and
// counted under route="/debug/pprof/".
func (s *server) enablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// countStates scans job states under the lock (queued, running).
func (s *server) countStates() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		switch j.State {
		case stateQueued:
			queued++
		case stateRunning:
			running++
		}
	}
	return queued, running
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

// openData attaches the corpus store, result cache, result spool and
// job journal rooted at dir, then replays the journal: finished jobs
// are restored (their results resolve from the recorded output path —
// the spec's, or the spool's — or the result cache), interrupted ones
// re-queue. Call before serving traffic.
func (s *server) openData(dir string) error {
	store, err := corpus.Open(dir)
	if err != nil {
		return err
	}
	store.SetParallel(s.ingestParallel)
	store.SetMetrics(obs.NewCorpusMetrics(s.reg))
	s.reg.GaugeFunc("corpus_traces", "Traces in the corpus catalogue.", nil,
		func() float64 { return float64(store.Len()) })
	jnl, recs, err := openJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	spool := filepath.Join(dir, "spool")
	if err := os.MkdirAll(spool, 0o777); err != nil {
		return err
	}
	s.store = store
	s.jnl = jnl
	// Rebuild the per-tenant corpus usage backing the corpus-bytes
	// quota from the entry sidecars (entries older than tenant
	// attribution count against the anonymous tenant).
	s.mu.Lock()
	s.spoolDir = spool
	for _, e := range store.Entries() {
		tenant := e.Tenant
		if tenant == "" {
			tenant = anonTenant
		}
		s.corpusUsed[tenant] += e.Size
	}
	s.mu.Unlock()
	s.replay(recs)
	return nil
}

// replay rebuilds job state from journal records.
func (s *server) replay(recs []journalRecord) {
	var requeue []*job
	s.mu.Lock()
	for _, rec := range recs {
		switch rec.Op {
		case journalSubmit:
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			if suffix, ok := strings.CutPrefix(rec.ID, "job-"); ok {
				if n, err := strconv.Atoi(suffix); err == nil && n > s.nextID {
					s.nextID = n
				}
			}
			if _, dup := s.jobs[rec.ID]; dup {
				continue
			}
			j := &job{
				ID:        rec.ID,
				Name:      rec.Spec.Name,
				State:     stateQueued,
				Submitted: rec.Time,
				Spec:      *rec.Spec,
				Digest:    rec.Digest,
				Tenant:    rec.Tenant,
				TraceID:   rec.TraceID,
			}
			s.jobs[j.ID] = j
			s.order = append(s.order, j.ID)
		case journalDone:
			j, ok := s.jobs[rec.ID]
			if !ok {
				continue
			}
			t := rec.Time
			j.State = stateDone
			j.Finished = &t
			j.Report = rec.Report
			j.Cached = rec.Cached
			if rec.TraceID != "" {
				// The timeline itself lived in the old process's flight
				// recorder; the trace ID still names the distributed
				// trace the job ran under.
				j.TraceID = rec.TraceID
			}
			j.OutPath = ""
			if rec.OutPath != "" {
				if _, err := os.Stat(rec.OutPath); err == nil {
					j.OutPath = rec.OutPath
				}
			}
			if j.OutPath == "" && rec.Key != "" && s.store != nil {
				if p, _, ok := s.store.LookupResult(rec.Key); ok {
					j.OutPath = p
					j.Cached = true
				}
			}
			if j.OutPath != "" {
				j.ResultURL = "/v1/jobs/" + j.ID + "/result"
			}
		case journalFail:
			j, ok := s.jobs[rec.ID]
			if !ok {
				continue
			}
			t := rec.Time
			j.State = stateFailed
			j.Finished = &t
			j.Error = rec.Error
		}
	}
	for _, id := range s.order {
		if j := s.jobs[id]; j.State == stateQueued {
			requeue = append(requeue, j)
		}
	}
	restored := len(s.order)
	s.mu.Unlock()
	s.replayedJobs.Add(int64(restored))
	s.requeuedJobs.Add(int64(len(requeue)))
	if restored > 0 {
		s.log.Info("journal replayed", "jobs", restored, "requeued", len(requeue))
	}
	if len(requeue) == 0 {
		return
	}
	// Enqueue in the background: a backlog larger than the queue
	// buffer must not block startup (the listener comes up after
	// replay). Shutdown aborts the enqueue via stopRequeue; jobs not
	// yet enqueued stay submit-only in the journal and re-run on the
	// next start.
	done := make(chan struct{})
	s.requeueDone = done
	go func() {
		defer close(done)
		for _, j := range requeue {
			select {
			case s.queue <- j:
			case <-s.stopRequeue:
				return
			}
		}
	}()
}

// ServeHTTP implements http.Handler: every request passes through the
// request-ID / logging / metrics middleware before the route mux.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close stops accepting submissions and waits for the executors to
// finish every queued and running job.
func (s *server) Close() { s.CloseGrace(0) }

// CloseGrace stops accepting submissions and drains the executors,
// waiting at most d (<=0 = forever). It reports whether the drain
// completed; on false, still-running jobs keep only a submit record in
// the journal and therefore re-run on the next start. The journal is
// flushed and closed either way, and a daemon without -data removes
// its temporary result spool: its results end with the process.
func (s *server) CloseGrace(d time.Duration) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	s.closed = true
	s.mu.Unlock()
	// Stop a replay enqueue before closing the queue — its sends are
	// the only ones outside s.mu. handleSubmit sends under s.mu after
	// checking closed, so no other send can race the close.
	close(s.stopRequeue)
	<-s.requeueDone
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	drained := true
	if d > 0 {
		select {
		case <-done:
		case <-time.After(d):
			drained = false
		}
	} else {
		<-done
	}
	if s.store == nil {
		s.mu.Lock()
		tempSpool := s.spoolDir
		s.mu.Unlock()
		if tempSpool != "" {
			os.RemoveAll(tempSpool)
		}
	}
	if s.jnl != nil {
		if drained {
			// Clean shutdown: rewrite the journal to just the retained
			// jobs so it stays bounded across the daemon's lifetime.
			s.jnl.compactAndClose(s.journalSnapshot())
		} else {
			// Executors may still be running; leave the append-only
			// form so their interrupted jobs re-run on the next start.
			s.jnl.close()
		}
	}
	return drained
}

// journalSnapshot rebuilds the minimal journal for the retained jobs:
// one submit record each, plus a finish record for completed ones. The
// caller must have drained the executors.
func (s *server) journalSnapshot() []journalRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]journalRecord, 0, 2*len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		recs = append(recs, journalRecord{
			Op: journalSubmit, ID: j.ID, Time: j.Submitted, Spec: &j.Spec, Digest: j.Digest,
			Tenant: j.Tenant, TraceID: j.TraceID,
		})
		fin := j.Submitted
		if j.Finished != nil {
			fin = *j.Finished
		}
		switch j.State {
		case stateDone:
			key := ""
			if j.Digest != "" {
				// Same key the executor used: the fingerprint ignores
				// the In form, so the corpus: spec digests identically.
				key = engine.CacheKey(j.Digest, j.Spec)
			}
			recs = append(recs, journalRecord{
				Op: journalDone, ID: j.ID, Time: fin,
				Key: key, OutPath: j.OutPath, Cached: j.Cached, Report: j.Report,
				TraceID: j.TraceID,
			})
		case stateFailed:
			recs = append(recs, journalRecord{
				Op: journalFail, ID: j.ID, Time: fin, Error: j.Error,
			})
		}
	}
	return recs
}

// worker executes queued jobs one at a time, short-circuiting corpus
// jobs whose (input digest, spec fingerprint) key is already in the
// result cache.
func (s *server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		now := time.Now()
		s.mu.Lock()
		j.State = stateRunning
		j.Started = &now
		parent := j.traceParent
		if !parent.Valid() && j.TraceID != "" {
			// Journal-restored job: keep its trace ID, no parent span.
			parent = obs.TraceContext{TraceID: j.TraceID}
		}
		s.mu.Unlock()
		s.log.Info("job started", "job", j.ID, "name", j.Name, "method", j.Spec.Method)

		// Each job records into its own tracer on an engine config
		// derived from the shared base; the timeline parks in the
		// flight recorder however the job ends.
		tracer := obs.NewTracer(j.ID+" "+j.Name, 0, parent)
		cfg := s.base
		cfg.Trace = tracer

		var res *engine.JobResult
		var err error
		hit := false
		key := ""
		runSpec := j.Spec
		if j.Digest != "" {
			if s.store == nil {
				err = fmt.Errorf("job %s has corpus input but the daemon runs without -data", j.ID)
			} else if p, perr := s.store.BlobPath(j.Digest); perr != nil {
				err = perr
			} else {
				runSpec.In = p
				key = engine.CacheKey(j.Digest, runSpec)
				res, hit, err = engine.RunJobCached(cfg, runSpec, j.Digest, s.store)
			}
		} else {
			if runSpec.Out == "" {
				runSpec.Out, err = s.spoolPath(j.ID)
			}
			if err == nil {
				res, err = engine.RunJob(cfg, runSpec)
			}
		}

		fin := time.Now()
		// Fold the wall time into the EWMA feeding queue-full
		// Retry-After (racy read-modify-write is fine: it is a hint).
		wall := fin.Sub(now).Nanoseconds()
		if old := s.avgJobNs.Load(); old > 0 {
			wall = (3*old + wall) / 4
		}
		s.avgJobNs.Store(wall)
		jt := tracer.Finish()
		s.flight.Add(j.ID, jt)
		rec := journalRecord{ID: j.ID, Time: fin, Key: key, Cached: hit, TraceID: jt.TraceID}
		s.mu.Lock()
		j.Finished = &fin
		j.TraceID = jt.TraceID
		j.TraceURL = "/v1/jobs/" + j.ID + "/trace"
		if err != nil {
			s.jobsFailed.Inc()
			j.State = stateFailed
			j.Error = err.Error()
			rec.Op = journalFail
			rec.Error = j.Error
		} else {
			if hit {
				s.jobsCached.Inc()
			} else {
				s.jobsExecuted.Inc()
			}
			j.State = stateDone
			j.Cached = hit
			j.Report = newJobReport(res.Report)
			j.OutPath = res.OutPath
			j.ResultURL = "/v1/jobs/" + j.ID + "/result"
			rec.Op = journalDone
			rec.OutPath = res.OutPath
			rec.Report = j.Report
		}
		s.prune()
		s.mu.Unlock()
		if err != nil {
			s.log.Warn("job failed", "job", j.ID, "error", err, "duration", fin.Sub(now))
		} else {
			s.log.Info("job finished", "job", j.ID, "cached", hit, "duration", fin.Sub(now))
		}
		if wall := fin.Sub(now); s.slowJob > 0 && wall >= s.slowJob {
			s.slowJobs.Inc()
			s.log.Warn("slow job", "job", j.ID, "duration", wall,
				"threshold", s.slowJob, "trace_id", jt.TraceID,
				"slowest_spans", obs.SummarizeSpans(jt.SlowestSpans(5)))
		}
		if s.jnl != nil {
			s.jnl.append(rec)
		}
	}
}

// queueRetryAfter derives the queue-full Retry-After from load: the
// time the executors need to work off the current backlog at the
// recent average job duration, clamped to [1s, 2m]. Before any job
// has finished, a conservative half-second average applies.
func (s *server) queueRetryAfter() time.Duration {
	avg := time.Duration(s.avgJobNs.Load())
	if avg <= 0 {
		avg = 500 * time.Millisecond
	}
	d := time.Duration(float64(avg) * float64(len(s.queue)+1) / float64(s.executors))
	if d < time.Second {
		d = time.Second
	}
	if d > 2*time.Minute {
		d = 2 * time.Minute
	}
	return d
}

// spoolPath is where a path job submitted without an out path writes
// its result: one file per job ID under the spool directory.
func (s *server) spoolPath(id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spoolDir == "" {
		dir, err := os.MkdirTemp("", "tracetrackerd-spool-")
		if err != nil {
			return "", err
		}
		s.spoolDir = dir
	}
	return filepath.Join(s.spoolDir, id), nil
}

// prune enforces the retention bound; the caller holds s.mu. The
// oldest finished job records beyond retainJobs are dropped, and a
// dropped job's spool file goes with it (a result in the cache or at
// the spec's out path is not the daemon's to delete).
//
//tracelint:holds mu
func (s *server) prune() {
	if len(s.order) <= retainJobs {
		return
	}
	kept := s.order[:0]
	drop := len(s.order) - retainJobs
	for _, id := range s.order {
		j := s.jobs[id]
		if drop > 0 && (j.State == stateDone || j.State == stateFailed) {
			if j.Spec.Out == "" && j.Digest == "" && j.OutPath != "" {
				os.Remove(j.OutPath)
			}
			delete(s.jobs, id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec engine.JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, apicode.BadJSON, fmt.Errorf("bad job spec: %w", err))
		return
	}
	digest := ""
	if rest, ok := strings.CutPrefix(spec.In, corpusScheme); ok {
		if s.store == nil {
			httpError(w, http.StatusServiceUnavailable, apicode.CorpusDisabled,
				fmt.Errorf("corpus inputs need the daemon started with -data"))
			return
		}
		e, err := s.store.Resolve(rest)
		if err != nil {
			httpError(w, http.StatusNotFound, apicode.UnknownTrace, err)
			return
		}
		// A sniffing informat means "infer it" — for corpus inputs the
		// ingested format is authoritative.
		if !trace.Sniffs(spec.InFormat) && spec.InFormat != e.Format {
			httpError(w, http.StatusBadRequest, apicode.FormatConflict,
				fmt.Errorf("informat %q conflicts with ingested format %q", spec.InFormat, e.Format))
			return
		}
		spec.InFormat = e.Format
		// Canonicalize to the full digest so the persisted spec is
		// self-describing and replay-stable.
		spec.In = corpusScheme + e.Digest
		digest = e.Digest
	} else if spec.InFormat != "" && spec.In != "" {
		// Server-side path input: resolve "auto" at submit so the
		// persisted spec carries a concrete format. (An absent informat
		// is the spec's csv default, not a sniff.)
		var err error
		if spec.InFormat, err = trace.ResolveFile(spec.In, spec.InFormat); err != nil {
			httpError(w, http.StatusBadRequest, apicode.BadFormat, err)
			return
		}
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		specError(w, err)
		return
	}
	tenant := tenantFrom(r.Context())
	// Quotas gate valid submits before the queue: a tenant at its own
	// limit is that tenant's problem (403), not server overload.
	if q := s.adm.quota.JobsPerMin; q > 0 {
		if ok, wait := s.adm.jobBucket(tenant).take(); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			s.reject(w, "quota_jobs_per_min", tenant, http.StatusForbidden, apicode.QuotaExceeded,
				fmt.Errorf("tenant %q exceeded its %d jobs/min quota", tenant, q))
			return
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, apicode.ShuttingDown, fmt.Errorf("server shutting down"))
		return
	}
	// Concurrent-jobs quota, atomically with the enqueue below so
	// parallel submits cannot slip past the count.
	if q := s.adm.quota.ConcurrentJobs; q > 0 {
		active := 0
		for _, j := range s.jobs {
			if j.Tenant == tenant && (j.State == stateQueued || j.State == stateRunning) {
				active++
			}
		}
		if active >= q {
			s.mu.Unlock()
			s.reject(w, "quota_concurrent_jobs", tenant, http.StatusForbidden, apicode.QuotaExceeded,
				fmt.Errorf("tenant %q already has %d jobs queued or running (concurrent-jobs quota %d)", tenant, active, q))
			return
		}
	}
	s.nextID++
	tc := obs.TraceContextFrom(r.Context())
	j := &job{
		ID:          fmt.Sprintf("job-%d", s.nextID),
		Name:        spec.Name,
		State:       stateQueued,
		Submitted:   time.Now(),
		Spec:        spec,
		Digest:      digest,
		Tenant:      tenant,
		TraceID:     tc.TraceID,
		traceParent: tc,
	}
	// The non-blocking send happens under s.mu so it is atomic with
	// the closed check above (Close sets closed before closing the
	// channel, under the same lock).
	queued := false
	select {
	case s.queue <- j:
		queued = true
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	default:
	}
	if queued && s.jnl != nil {
		// Still under s.mu: a worker cannot pass its state-update lock
		// (and so cannot journal this job's finish) until we release,
		// which keeps the submit record strictly before its finish
		// record — replay depends on that order.
		s.jnl.append(journalRecord{
			Op: journalSubmit, ID: j.ID, Time: j.Submitted, Spec: &j.Spec, Digest: j.Digest,
			Tenant: j.Tenant, TraceID: j.TraceID,
		})
	}
	// Captured under the lock: a fast job can finish (and the worker
	// rewrite j's fields under s.mu) before this handler writes its
	// response.
	id, traceID := j.ID, j.TraceID
	s.mu.Unlock()
	if !queued {
		// Shed rather than block: 429 with a load-derived Retry-After
		// (time for the executors to work off the backlog), so a
		// well-behaved client backs off proportionally to the overload.
		w.Header().Set("Retry-After", retryAfterSeconds(s.queueRetryAfter()))
		s.reject(w, "queue_full", tenant, http.StatusTooManyRequests, apicode.QueueFull,
			fmt.Errorf("job queue full (%d queued); retry after the backlog drains", s.queueCap))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": id, "status_url": "/v1/jobs/" + id, "trace_id": traceID})
}

// List pagination bounds: pages default to defaultListLimit jobs and
// never exceed maxListLimit, whatever the client asks for.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// jobPage is the GET /v1/jobs response: one page of jobs, newest
// first, plus the cursor for the next page when more remain.
type jobPage struct {
	Jobs      []job  `json:"jobs"`
	NextAfter string `json:"next_after,omitempty"`
}

// jobSeq extracts the monotonic sequence number from a job ID.
func jobSeq(id string) (int, bool) {
	suffix, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(suffix)
	return n, err == nil && n > 0
}

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
	// The cursor is the ID of the last job on the previous page. Jobs
	// are compared by their monotonic sequence number, so the walk is
	// stable under concurrent submissions: new jobs only ever appear
	// before the cursor (on page one), never shifted into later pages —
	// and a pruned cursor job still orders the remainder correctly.
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
	// Snapshot under the lock, marshal outside it: serializing
	// hundreds of retained records must not stall workers flipping
	// job states.
	s.mu.Lock()
	page := jobPage{Jobs: []job{}}
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		if afterSeq >= 0 {
			if n, ok := jobSeq(id); !ok || n >= afterSeq {
				continue
			}
		}
		if len(page.Jobs) == limit {
			page.NextAfter = page.Jobs[len(page.Jobs)-1].ID
			break
		}
		page.Jobs = append(page.Jobs, *s.jobs[id])
	}
	s.mu.Unlock()
	data, err := json.Marshal(page)
	if err != nil {
		httpError(w, http.StatusInternalServerError, apicode.Internal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var data []byte
	var err error
	if ok {
		data, err = json.Marshal(j)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, apicode.UnknownJob, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, apicode.Internal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleResult serves a finished job's result. Every finished job is
// a file (the cache entry, the out path or the spool file), so this is
// http.ServeFile and nothing else: ranges and conditional requests come
// with it, and the body goes out by sendfile, because the obs
// middleware's writer forwards ReadFrom to the connection.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var state, outPath string
	if ok {
		state, outPath = j.State, j.OutPath
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, apicode.UnknownJob, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if state != stateDone {
		httpError(w, http.StatusConflict, apicode.JobNotFinished, fmt.Errorf("job is %s", state))
		return
	}
	if outPath == "" {
		// Only a journal-restored job can be here: its recorded output
		// file was gone at replay and the result cache had no copy.
		httpError(w, http.StatusNotFound, apicode.NotFound,
			fmt.Errorf("job %s finished in an earlier run and its result file is gone; resubmit it", r.PathValue("id")))
		return
	}
	http.ServeFile(w, r, outPath)
}

// handleTrace serves a finished job's span timeline from the flight
// recorder: the JobTrace JSON tree by default, the Chrome trace-event
// form (loadable in Perfetto) with ?format=perfetto. Still-queued or
// running jobs answer 409; jobs whose timeline the recorder has
// evicted (or that finished in an earlier process) answer 410.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state string
	if ok {
		state = j.State
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, apicode.UnknownJob, fmt.Errorf("unknown job %q", id))
		return
	}
	if state != stateDone && state != stateFailed {
		httpError(w, http.StatusConflict, apicode.JobNotFinished,
			fmt.Errorf("job is %s; its timeline lands when it finishes", state))
		return
	}
	jt, ok := s.flight.Get(id)
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
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.trace.json", id))
		obs.WriteChromeTrace(w, jt)
	default:
		httpError(w, http.StatusBadRequest, apicode.BadFormat,
			fmt.Errorf("unknown trace format %q (json, perfetto)", format))
	}
}

// requireStore answers 503 and returns nil when no data directory is
// attached.
func (s *server) requireStore(w http.ResponseWriter) *corpus.Store {
	if s.store == nil {
		httpError(w, http.StatusServiceUnavailable, apicode.CorpusDisabled,
			fmt.Errorf("corpus store disabled; start the daemon with -data"))
		return nil
	}
	return s.store
}

func (s *server) handleCorpusIngest(w http.ResponseWriter, r *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	tenant := tenantFrom(r.Context())
	var body io.Reader = r.Body
	if s.maxUpload > 0 {
		// MaxBytesReader aborts the streaming ingest mid-body; the
		// store's staging discipline removes the partial spool.
		body = http.MaxBytesReader(w, r.Body, s.maxUpload)
	}
	if q := s.adm.quota.CorpusBytes; q > 0 {
		s.mu.Lock()
		used := s.corpusUsed[tenant]
		s.mu.Unlock()
		if used >= q {
			s.reject(w, "quota_corpus_bytes", tenant, http.StatusForbidden, apicode.QuotaExceeded,
				fmt.Errorf("tenant %q has %d corpus bytes stored (quota %d)", tenant, used, q))
			return
		}
		body = &quotaReader{r: body, remaining: q - used}
	}
	entry, created, err := store.IngestAs(body, r.URL.Query().Get("format"), tenant)
	if err != nil {
		s.corpusIngestError(w, tenant, err)
		return
	}
	if created {
		s.mu.Lock()
		s.corpusUsed[tenant] += entry.Size
		s.mu.Unlock()
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
			fmt.Errorf("upload exceeds the %d-byte cap", s.maxUpload))
	case errors.Is(err, errCorpusQuota):
		s.reject(w, "quota_corpus_bytes", tenant, http.StatusForbidden, apicode.QuotaExceeded,
			fmt.Errorf("upload would take tenant %q past its corpus-bytes quota (%d)", tenant, s.adm.quota.CorpusBytes))
	case errors.Is(err, corpus.ErrBadTrace):
		// Undecodable uploads are the client's fault; anything else
		// (disk full, unwritable store) is ours.
		httpError(w, http.StatusBadRequest, apicode.BadTrace, err)
	default:
		httpError(w, http.StatusInternalServerError, apicode.Internal, err)
	}
}

func (s *server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	writeJSON(w, store.Entries())
}

func (s *server) handleCorpusInfo(w http.ResponseWriter, r *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	e, err := store.Resolve(r.PathValue("digest"))
	if err != nil {
		httpError(w, http.StatusNotFound, apicode.UnknownTrace, err)
		return
	}
	writeJSON(w, e)
}

func (s *server) handleCorpusData(w http.ResponseWriter, r *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	rc, e, err := store.OpenBlob(r.PathValue("digest"))
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
	s.mu.Lock()
	total := len(s.jobs)
	s.mu.Unlock()
	queued, running := s.countStates()
	health := map[string]any{
		"ok":             true,
		"jobs":           total,
		"queued":         queued,
		"running":        running,
		"executed":       s.jobsExecuted.Value(),
		"cache_hits":     s.jobsCached.Value(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"revision":       s.revision,
	}
	if s.store != nil {
		health["corpus"] = s.store.Len()
	}
	writeJSON(w, health)
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
