// Command tracetrackerd is the batch reconstruction job server: a
// long-running HTTP daemon that runs whole-corpus reconstructions on
// the sharded parallel engine (internal/engine), backed by a
// content-addressed trace corpus (internal/corpus).
//
// Jobs are JSON engine.JobSpec documents naming an uploaded trace,
// "corpus:<digest>" of a trace sent to POST /v1/corpus, plus the
// method and the reconstruction target (array/ssd/hdd/ftl/host, with
// nested ftl_config/host_config knobs discoverable from GET
// /v1/devices). Every job streams its input through the engine's stage
// graph straight into its result-cache entry, keyed by (input digest,
// job fingerprint), on the operator's -parallel workers (a spec carries
// no worker count, nor a reorder window) in memory bounded by -parallel
// · -max-shard requests plus the input format's reorder window, not the
// trace, and the result endpoint serves that file:
// resubmitting an equivalent job serves the cached bytes without
// reconstructing. A journal replays finished and interrupted jobs
// across restarts of the same -data directory; without -data the
// daemon works in a temporary one it removes at shutdown.
//
// The daemon listens on loopback by default and runs anonymously
// there; to expose it beyond the host, configure API-key
// authentication with -auth-keys (or TRACETRACKERD_AUTH_KEYS) — keys
// map to tenant names, and per-tenant quotas (-quota-corpus-bytes,
// -quota-concurrent-jobs, -quota-jobs-per-min), rate limits (-rate,
// -tenant-rate), the bounded job queue (-queue), the upload cap
// (-max-upload-bytes) and the server timeouts shed overload instead
// of degrading. A non-loopback -addr without auth keys is refused
// unless -insecure explicitly accepts anonymous remote access.
//
// The API lives under /v1 (only /healthz and /metrics sit at the
// root), and every non-2xx response carries the structured envelope
// {"error":{"code":"...","message":"..."}} with a stable code.
//
//	tracetrackerd -jobs 2 -parallel 8 -data /var/lib/tracetracker
//
//	curl -s -X POST --data-binary @web_0.csv localhost:8080/v1/corpus
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"in":"corpus:<digest>","method":"tracetracker","device":"hdd"}'
//	curl -s localhost:8080/v1/jobs/job-1          # status + report
//	curl -s localhost:8080/v1/jobs/job-1/result   # reconstructed trace
//	curl -s localhost:8080/v1/jobs/job-1/trace    # span timeline (?format=perfetto)
//	curl -s localhost:8080/v1/devices             # target capability catalogue
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains running
// jobs up to -drain, flushes the journal and exits; interrupted jobs
// re-run on the next start.
//
// See the README's "tracetrackerd API" section for the full surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

func main() {
	fs, o := flags(os.Args[0])
	fs.Parse(os.Args[1:])

	log, err := obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetrackerd: %v\n", err)
		os.Exit(1)
	}

	auth, err := loadAuthKeys(o.authKeys)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetrackerd: %v\n", err)
		os.Exit(1)
	}
	if err := checkAddrGuard(o.addr, auth != nil, o.insecure); err != nil {
		fmt.Fprintf(os.Stderr, "tracetrackerd: %v\n", err)
		os.Exit(1)
	}

	base := engine.Config{Workers: o.parallel, MaxShardRequests: o.maxShard}
	srv := newServerCap(base, o.jobs, o.queueCap)
	srv.ingestParallel = o.parallel
	srv.flight.SetCapacity(o.traceRing)
	srv.slowJob = o.slowJob
	srv.maxUpload = o.maxUpload
	srv.setAuth(auth)
	srv.setRateLimits(o.rate, o.tenantRate)
	srv.adm.quota = quotaConfig{
		CorpusBytes:    o.quotaCorpus,
		ConcurrentJobs: o.quotaJobs,
		JobsPerMin:     o.quotaJobsPerMin,
	}
	srv.setLogger(log)
	if o.pprofOn {
		srv.enablePprof()
	}
	// tmpData is the data directory made for a daemon without -data,
	// removed at exit ("" otherwise, which RemoveAll ignores).
	tmpData := ""
	if o.dataDir == "" {
		if tmpData, err = os.MkdirTemp("", "tracetrackerd-data-"); err != nil {
			fmt.Fprintf(os.Stderr, "tracetrackerd: %v\n", err)
			os.Exit(1)
		}
		o.dataDir = tmpData
	}
	if err := srv.openData(o.dataDir); err != nil {
		log.Error("data directory failed to open", "dir", o.dataDir, "error", err)
		os.RemoveAll(tmpData)
		os.Exit(1)
	}
	log.Info("corpus store attached", "dir", o.dataDir, "traces", srv.store.Len())

	hs := newHTTPServer(o.addr, srv, o.readHeaderTimeout, o.readTimeout, o.writeTimeout, o.idleTimeout)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Info("listening", "addr", o.addr, "executors", o.jobs, "workers", o.parallel,
		"revision", srv.revision, "pprof", o.pprofOn, "auth", auth != nil, "queue", o.queueCap)
	select {
	case err := <-errc:
		log.Error("server failed", "error", err)
		os.RemoveAll(tmpData)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately

	log.Info("shutting down, draining jobs", "deadline", o.drain)
	// One deadline covers both phases: in-flight HTTP responses and
	// running executors share -drain rather than each getting it.
	deadline := time.Now().Add(o.drain)
	sctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	hs.Shutdown(sctx)
	remain := time.Until(deadline)
	if remain <= 0 {
		remain = time.Millisecond
	}
	if !srv.CloseGrace(remain) {
		log.Warn("drain deadline hit; interrupted jobs will re-run on next start")
	}
	os.RemoveAll(tmpData)
}

// options is the daemon's command line.
type options struct {
	addr              string
	jobs              int
	parallel          int
	maxShard          int
	dataDir           string
	drain             time.Duration
	traceRing         int
	slowJob           time.Duration
	logLevel          string
	logFormat         string
	pprofOn           bool
	authKeys          string
	insecure          bool
	queueCap          int
	maxUpload         int64
	rate              float64
	tenantRate        float64
	quotaCorpus       int64
	quotaJobs         int
	quotaJobsPerMin   int
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
}

// flags is the daemon's flag set, named name, parsing into a new
// options. It exits on a parse error (2) and on -h (0), after printing
// the defaults.
func flags(name string) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080",
		"listen address (loopback by default; non-loopback requires -auth-keys or -insecure)")
	fs.IntVar(&o.jobs, "jobs", 2, "concurrent job executors")
	fs.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0),
		"engine workers per job, and workers for decoding a staged corpus upload (<2 = sequential)")
	fs.IntVar(&o.maxShard, "max-shard", 0, "max requests per shard (0 = engine default)")
	fs.StringVar(&o.dataDir, "data", "",
		"data directory: where the corpus of uploaded traces, the result cache and the job journal (crash recovery) live (default: a temporary directory removed at shutdown)")
	fs.DurationVar(&o.drain, "drain", 30*time.Second,
		"graceful-shutdown deadline for running jobs on SIGINT/SIGTERM")
	fs.IntVar(&o.traceRing, "trace-ring", obs.DefaultFlightRecorderCapacity,
		"finished-job span timelines kept for GET /v1/jobs/{id}/trace before eviction")
	fs.DurationVar(&o.slowJob, "slow-job", time.Minute,
		"log a job's slowest spans when its wall time crosses this threshold (0 disables)")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&o.logFormat, "log-format", "text", "log format: text, json")
	fs.BoolVar(&o.pprofOn, "pprof", false,
		"serve net/http/pprof under /debug/pprof/ (off by default: profiles expose internals)")
	fs.StringVar(&o.authKeys, "auth-keys", "",
		"API key file (one tenant:key per line, #-comments); enables auth: clients send Authorization: Bearer <key> or X-API-Key. Unset, the TRACETRACKERD_AUTH_KEYS env var (inline tenant:key,tenant:key) is tried; neither = anonymous mode")
	fs.BoolVar(&o.insecure, "insecure", false,
		"allow a non-loopback -addr without auth keys (dangerous: anonymous clients can upload traces and run jobs)")
	fs.IntVar(&o.queueCap, "queue", defaultQueueCap,
		"job queue capacity; submissions beyond it answer 429 queue_full with a load-derived Retry-After")
	fs.Int64Var(&o.maxUpload, "max-upload-bytes", 1<<30,
		"largest accepted corpus upload body in bytes (0 = unlimited); larger bodies answer 413 payload_too_large")
	fs.Float64Var(&o.rate, "rate", 0, "global API request rate limit in req/s (0 = unlimited; burst 2x)")
	fs.Float64Var(&o.tenantRate, "tenant-rate", 0, "per-tenant API request rate limit in req/s (0 = unlimited; burst 2x)")
	fs.Int64Var(&o.quotaCorpus, "quota-corpus-bytes", 0, "per-tenant corpus bytes stored before uploads answer 403 quota_exceeded (0 = unlimited)")
	fs.IntVar(&o.quotaJobs, "quota-concurrent-jobs", 0, "per-tenant queued+running jobs before submits answer 403 quota_exceeded (0 = unlimited)")
	fs.IntVar(&o.quotaJobsPerMin, "quota-jobs-per-min", 0, "per-tenant job submissions per minute before submits answer 403 quota_exceeded (0 = unlimited)")
	fs.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 10*time.Second,
		"time a client gets to send request headers before the connection drops (slow-loris guard)")
	fs.DurationVar(&o.readTimeout, "read-timeout", 5*time.Minute,
		"time a client gets to send a whole request, including a streaming upload body")
	fs.DurationVar(&o.writeTimeout, "write-timeout", 10*time.Minute,
		"time the server gets to write a whole response, including large result downloads")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute,
		"keep-alive connection idle time before the server closes it")
	return fs, o
}

// newHTTPServer assembles the hardened http.Server around the daemon
// handler: header/read/write/idle deadlines so clients that trickle
// bytes (slow loris) or never read their response are disconnected
// instead of pinning connections and goroutines.
func newHTTPServer(addr string, h http.Handler, readHeader, read, write, idle time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		WriteTimeout:      write,
		IdleTimeout:       idle,
	}
}
