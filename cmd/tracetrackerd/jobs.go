package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Job states, and the bounds on the table and the queue.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
	// retainJobs caps job metadata records; the oldest finished jobs
	// beyond it are forgotten (their results stay in the result cache).
	retainJobs = 4096
	// defaultQueueCap bounds the executor queue; submissions beyond it
	// shed with 429 queue_full rather than blocking or growing without
	// bound (-queue overrides).
	defaultQueueCap = 1024
)

// edges lists every legal job-state transition, mapped to whether only
// journal replay takes it: executors take queued → running → done |
// failed; replay applies each finish record to its job, the last one
// for an ID winning, so it takes queued | done | failed → done | failed.
var edges = map[[2]string]bool{
	{stateQueued, stateRunning}: false, {stateRunning, stateDone}: false, {stateRunning, stateFailed}: false,
	{stateQueued, stateDone}: true, {stateQueued, stateFailed}: true,
	{stateDone, stateDone}: true, {stateDone, stateFailed}: true,
	{stateFailed, stateDone}: true, {stateFailed, stateFailed}: true,
}

// transition is the only writer of a job's State but newJob. No input
// drives an edge outside the table, so taking one is a bug: it panics.
func transition(j *job, to string, replay bool) {
	if replayOnly, ok := edges[[2]string{j.State, to}]; !ok || replayOnly != replay {
		panic(fmt.Sprintf("job %s: illegal transition %s -> %s (replay %v)", j.ID, j.State, to, replay))
	}
	j.State = to
}

// terminal reports whether a job in state has finished.
func terminal(state string) bool { return state == stateDone || state == stateFailed }

// errPathInput is the error of a journalled job without a corpus
// digest: a job on a file on the server, which an earlier daemon ran.
const errPathInput = "jobs on server-side paths were removed: upload the trace to POST /v1/corpus and resubmit it as \"in\":\"corpus:<digest>\""

// finish applies a finish record, an executor's or a replayed one; path
// is a done job's result file ("" when it is gone).
func finish(j *job, rec journalRecord, path string, replay bool) {
	t := rec.Time
	j.Finished = &t
	if rec.Op == journalFail {
		transition(j, stateFailed, replay)
		j.Error = rec.Error
		return
	}
	transition(j, stateDone, replay)
	if rec.TraceID != "" {
		// Kept even once the timeline died with its process.
		j.TraceID = rec.TraceID
	}
	j.Report, j.Cached, j.outPath = rec.Report, rec.Cached, path
	if path != "" {
		j.ResultURL = "/v1/jobs/" + j.ID + "/result"
	}
}

// submitRecord is the journal line that admits j.
func submitRecord(j *job) journalRecord {
	return journalRecord{
		Op: journalSubmit, ID: j.ID, Time: j.Submitted, Spec: &j.Spec, Digest: j.Digest,
		Tenant: j.Tenant, TraceID: j.TraceID,
	}
}

// finishRecord is the journal line of a finished j.
func finishRecord(j *job) journalRecord {
	rec := journalRecord{Op: journalFail, ID: j.ID, Time: *j.Finished, Error: j.Error, TraceID: j.TraceID}
	if j.Digest != "" {
		// The key the executor stored under: the fingerprint ignores
		// the In form, so the corpus: spec digests identically.
		rec.Key = engine.CacheKey(j.Digest, j.Spec)
	}
	if j.State == stateDone {
		rec.Op, rec.Error = journalDone, ""
		rec.Cached, rec.Report = j.Cached, j.Report
	}
	return rec
}

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
	// Digest is the corpus digest of the input ("" only for a journalled
	// job of an earlier daemon that read a server-side path).
	Digest string `json:"digest,omitempty"`
	// Tenant is the submitting identity (anonTenant in anonymous
	// mode); concurrent-jobs quotas count a tenant's live jobs by it.
	Tenant string `json:"tenant,omitempty"`
	// Cached reports the result came from the result cache without a
	// reconstruction.
	Cached    bool       `json:"cached,omitempty"`
	Report    *jobReport `json:"report,omitempty"`
	ResultURL string     `json:"result_url,omitempty"`
	// TraceID is the W3C trace the job's span timeline files under —
	// the submitting request's trace, so a client propagating
	// traceparent finds its job in its own distributed trace. TraceURL
	// appears once a timeline is in the flight recorder.
	TraceID  string `json:"trace_id,omitempty"`
	TraceURL string `json:"trace_url,omitempty"`

	// traceParent is the submit request's trace position (parent of
	// the job's root span). Journal-restored jobs keep only the trace
	// ID, so their root span has no parent span.
	traceParent obs.TraceContext
	// outPath is a done job's result-cache file, which handleResult
	// serves; clients get ResultURL, never the server's path.
	outPath string
}

// newJob creates a job in its first state, queued.
func newJob(id string, submitted time.Time, spec engine.JobSpec, digest, tenant string, tc obs.TraceContext) *job {
	return &job{
		ID: id, Name: spec.Name, State: stateQueued, Submitted: submitted,
		Spec: spec, Digest: digest, Tenant: tenant, TraceID: tc.TraceID, traceParent: tc,
	}
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

// Submit refusals; a quota refusal wraps errQuota with the live count.
var (
	errClosed    = errors.New("server shutting down")
	errQuota     = errors.New("concurrent-jobs quota")
	errQueueFull = errors.New("job queue full")
)

// jobs is the daemon's job lifecycle: the job table, the queue and its
// executors, the journal, retention and restart replay.
type jobs struct {
	// run executes a running job and returns its finish record and
	// result file.
	run       func(job) (journalRecord, string)
	queue     chan *job
	executors int
	wg        sync.WaitGroup
	// avgJobNs is an EWMA of recent job wall times; queue-full
	// Retry-After derives from it and the backlog.
	avgJobNs atomic.Int64

	jnl *journal
	// stopRequeue aborts a journal-replay enqueue still in progress at
	// shutdown; requeueing is done once that enqueue has stopped.
	stopRequeue chan struct{}
	requeueing  sync.WaitGroup

	// Outcome counters, which /healthz reads, and replay counters.
	executed, cached, failed *obs.Counter
	replayed, requeued       *obs.Counter

	mu     sync.Mutex
	table  map[string]*job // guarded by mu
	order  []string        // guarded by mu
	nextID int             // guarded by mu
	closed bool            // guarded by mu
}

// newJobs starts executors workers running queued jobs through run,
// recording every job in jnl.
func newJobs(reg *obs.Registry, executors, queueCap int, jnl *journal, run func(job) (journalRecord, string)) *jobs {
	t := &jobs{
		run:         run,
		queue:       make(chan *job, queueCap),
		executors:   executors,
		jnl:         jnl,
		stopRequeue: make(chan struct{}),
		table:       make(map[string]*job),
	}
	outcome := func(o string) *obs.Counter {
		return reg.Counter("daemon_jobs_total", "Finished jobs by outcome.", obs.Labels{"outcome": o})
	}
	t.executed, t.cached, t.failed = outcome("executed"), outcome("cached"), outcome("failed")
	t.replayed = reg.Counter("daemon_journal_replayed_jobs_total",
		"Jobs restored from the journal at startup.", nil)
	t.requeued = reg.Counter("daemon_journal_requeued_jobs_total",
		"Interrupted jobs re-queued from the journal at startup.", nil)
	for i := 0; i < executors; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	return t
}

// Submit admits a job, or refuses with errClosed, errQuota (tenant has
// maxLive jobs live; 0 = no quota) or errQueueFull. One lock covers the
// count, the non-blocking send and the submit record, so parallel
// submits cannot pass the count, Close cannot race the send, and no
// finish record can precede its submit record, as replay requires.
func (t *jobs) Submit(spec engine.JobSpec, digest, tenant string, tc obs.TraceContext, maxLive int) (job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return job{}, errClosed
	}
	if maxLive > 0 {
		active := 0
		for _, j := range t.table {
			if j.Tenant == tenant && !terminal(j.State) {
				active++
			}
		}
		if active >= maxLive {
			return job{}, fmt.Errorf("tenant %q already has %d jobs queued or running (%w %d)", tenant, active, errQuota, maxLive)
		}
	}
	t.nextID++
	j := newJob(fmt.Sprintf("job-%d", t.nextID), time.Now(), spec, digest, tenant, tc)
	select {
	case t.queue <- j:
	default:
		return job{}, errQueueFull
	}
	t.table[j.ID] = j
	t.order = append(t.order, j.ID)
	t.jnl.append(submitRecord(j))
	return *j, nil
}

// Get returns a copy of job id.
func (t *jobs) Get(id string) (job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.table[id]; ok {
		return *j, true
	}
	return job{}, false
}

// List returns up to limit jobs, newest first, older than the job
// with sequence number afterSeq (< 0 = from the newest). Comparing
// sequence numbers keeps a page walk stable under concurrent
// submissions: new jobs only ever appear before the cursor, and a
// pruned cursor job still orders the remainder.
func (t *jobs) List(afterSeq, limit int) jobPage {
	t.mu.Lock()
	defer t.mu.Unlock()
	page := jobPage{Jobs: []job{}}
	for i := len(t.order) - 1; i >= 0; i-- {
		id := t.order[i]
		if afterSeq >= 0 {
			if n, ok := jobSeq(id); !ok || n >= afterSeq {
				continue
			}
		}
		if len(page.Jobs) == limit {
			page.NextAfter = page.Jobs[len(page.Jobs)-1].ID
			break
		}
		page.Jobs = append(page.Jobs, *t.table[id])
	}
	return page
}

// counts reads the table's size, queued and running jobs in one pass.
func (t *jobs) counts() (total, queued, running int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.table {
		switch j.State {
		case stateQueued:
			queued++
		case stateRunning:
			running++
		}
	}
	return len(t.table), queued, running
}

// worker runs queued jobs one at a time until Close closes the queue.
func (t *jobs) worker() {
	defer t.wg.Done()
	for j := range t.queue {
		start := time.Now()
		t.mu.Lock()
		j.Started = &start
		transition(j, stateRunning, false)
		running := *j
		t.mu.Unlock()
		rec, path := t.run(running)
		// Fold the wall time into the EWMA feeding queue-full
		// Retry-After (racy read-modify-write is fine: it is a hint).
		wall := rec.Time.Sub(start).Nanoseconds()
		if old := t.avgJobNs.Load(); old > 0 {
			wall = (3*old + wall) / 4
		}
		t.avgJobNs.Store(wall)
		t.mu.Lock()
		j.TraceID, j.TraceURL = rec.TraceID, "/v1/jobs/"+j.ID+"/trace"
		finish(j, rec, path, false)
		switch {
		case j.State == stateFailed:
			t.failed.Inc()
		case j.Cached:
			t.cached.Inc()
		default:
			t.executed.Inc()
		}
		line := finishRecord(j)
		t.prune()
		t.mu.Unlock()
		t.jnl.append(line)
	}
}

// retryAfter derives the queue-full Retry-After from load: the time
// the executors need to work off the current backlog at the recent
// average job duration, clamped to [1s, 2m]. Before any job has
// finished, a conservative half-second average applies.
func (t *jobs) retryAfter() time.Duration {
	avg := time.Duration(t.avgJobNs.Load())
	if avg <= 0 {
		avg = 500 * time.Millisecond
	}
	d := time.Duration(float64(avg) * float64(len(t.queue)+1) / float64(t.executors))
	if d < time.Second {
		d = time.Second
	}
	if d > 2*time.Minute {
		d = 2 * time.Minute
	}
	return d
}

// prune enforces the retention bound; the caller holds t.mu. The
// oldest finished job records beyond retainJobs are dropped; their
// results stay in the result cache.
//
//tracelint:holds mu
func (t *jobs) prune() {
	if len(t.order) <= retainJobs {
		return
	}
	kept := t.order[:0]
	drop := len(t.order) - retainJobs
	for _, id := range t.order {
		j := t.table[id]
		if drop > 0 && terminal(j.State) {
			delete(t.table, id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
}

// Replay restores the jobs recs record, finding each done job's result
// in store, and re-queues the interrupted ones. Call it once, before
// serving.
func (t *jobs) Replay(recs []journalRecord, store *corpus.Store) (restored, requeued int) {
	var requeue []*job
	t.mu.Lock()
	for _, rec := range recs {
		t.replayRecord(rec, store)
	}
	for _, id := range t.order {
		if j := t.table[id]; j.State == stateQueued {
			requeue = append(requeue, j)
		}
	}
	restored = len(t.order)
	t.mu.Unlock()
	t.replayed.Add(int64(restored))
	t.requeued.Add(int64(len(requeue)))
	// Enqueue in the background: a backlog larger than the queue
	// buffer must not block startup (the listener comes up after
	// replay). Close aborts the enqueue via stopRequeue; jobs not yet
	// enqueued stay submit-only in the journal and re-run on the next
	// start.
	t.requeueing.Add(1)
	go func() {
		defer t.requeueing.Done()
		for _, j := range requeue {
			select {
			case t.queue <- j:
			case <-t.stopRequeue:
				return
			}
		}
	}()
	return restored, len(requeue)
}

// replayRecord applies one journal record to the table.
//
//tracelint:holds mu
func (t *jobs) replayRecord(rec journalRecord, store *corpus.Store) {
	switch rec.Op {
	case journalSubmit:
		if rec.Spec == nil || rec.ID == "" {
			return
		}
		if n, ok := jobSeq(rec.ID); ok && n > t.nextID {
			t.nextID = n
		}
		if _, dup := t.table[rec.ID]; dup {
			return
		}
		j := newJob(rec.ID, rec.Time, *rec.Spec, rec.Digest, rec.Tenant, obs.TraceContext{TraceID: rec.TraceID})
		t.table[rec.ID] = j
		t.order = append(t.order, rec.ID)
		if j.Digest == "" {
			// Never queued; the ID still answers.
			finish(j, journalRecord{Op: journalFail, Time: rec.Time, Error: errPathInput}, "", true)
		}
	case journalDone, journalFail:
		j, ok := t.table[rec.ID]
		if !ok || j.Digest == "" {
			return
		}
		path := ""
		if rec.Op == journalDone {
			path, _, _ = store.LookupResult(rec.Key)
		}
		finish(j, rec, path, true)
	}
}

// Close stops accepting submissions and drains the executors, waiting
// at most d (<=0 = forever). It reports whether the drain completed;
// on false, still-running jobs keep only a submit record in the
// journal and therefore re-run on the next start. The journal is
// flushed and closed either way.
func (t *jobs) Close(d time.Duration) bool {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return true
	}
	t.closed = true
	t.mu.Unlock()
	// Stop a replay enqueue before closing the queue — its sends are
	// the only ones outside t.mu.
	close(t.stopRequeue)
	t.requeueing.Wait()
	close(t.queue)

	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	var deadline <-chan time.Time // nil: wait forever
	if d > 0 {
		deadline = time.After(d)
	}
	drained := true
	select {
	case <-done:
	case <-deadline:
		drained = false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case drained:
		// Clean shutdown: rewrite the journal to just the retained
		// jobs — a submit record each, a finish record for finished
		// ones — so it stays bounded across the daemon's lifetime.
		recs := make([]journalRecord, 0, 2*len(t.order))
		for _, id := range t.order {
			j := t.table[id]
			recs = append(recs, submitRecord(j))
			if terminal(j.State) {
				recs = append(recs, finishRecord(j))
			}
		}
		t.jnl.compactAndClose(recs)
	default:
		// Executors may still be running; leave the append-only form
		// so their interrupted jobs re-run on the next start.
		t.jnl.close()
	}
	return drained
}
