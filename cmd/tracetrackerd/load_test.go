package main

// Load generation against a live tracetrackerd, the driver behind
// TestOverloadShedding: N tenant clients mix corpus uploads and job
// submissions in closed loops until a deadline, backing off with
// jittered exponential delays that honor the server's Retry-After on
// shed (429) responses. The report turns "handles overload gracefully"
// into numbers: accepted/shed/error rates, accepted-request latency
// percentiles, and whether every accepted job reached a terminal state.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// LoadOptions configures RunLoad.
type LoadOptions struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenants is the number of concurrent client loops (default 4).
	Tenants int
	// Duration is how long the loops submit for (default 5s); waiting
	// for accepted jobs to finish afterwards is not counted.
	Duration time.Duration
	// TraceRequests sizes each tenant's fixed-seed upload (default
	// 20k requests). Every tenant uploads a distinct blob, so corpus
	// traffic is not pure dedup.
	TraceRequests int
	// UploadEvery re-uploads the tenant's blob every Nth operation
	// (default 16); other operations submit jobs.
	UploadEvery int
	// Log, when non-nil, receives progress lines.
	Log func(string)
}

// LoadReport is RunLoad's outcome.
type LoadReport struct {
	Tenants  int
	Duration float64
	// Requests counts admission-relevant requests issued (uploads +
	// submits); Accepted the 2xx among them; Shed the 429s (rate
	// limits and queue-full); ClientErrors other 4xx (quotas, bad
	// specs); ServerErrors 5xx and transport failures.
	Requests     int64
	Accepted     int64
	Shed         int64
	ClientErrors int64
	ServerErrors int64
	// JobsAccepted counts accepted submits; JobsCompleted/JobsFailed
	// their terminal states after the post-deadline drain.
	JobsAccepted  int64
	JobsCompleted int64
	JobsFailed    int64
	// AcceptedP50Ms / AcceptedP99Ms are latency percentiles over
	// accepted requests.
	AcceptedP50Ms float64
	AcceptedP99Ms float64
}

// loadWorker is one tenant's loop state.
type loadWorker struct {
	opts   LoadOptions
	client *http.Client
	blob   []byte
	digest string
	rng    *rand.Rand

	report  LoadReport
	jobIDs  []string
	latency []float64 // accepted-request latencies, ms
}

// RunLoad drives the daemon at opts.BaseURL with opts.Tenants client
// loops and aggregates their outcomes.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	if opts.Tenants <= 0 {
		opts.Tenants = 4
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.TraceRequests <= 0 {
		opts.TraceRequests = 20_000
	}
	if opts.UploadEvery <= 0 {
		opts.UploadEvery = 16
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	// One fixed-seed trace, re-encoded per tenant under a distinct
	// name so each tenant's blob has its own digest.
	tr := generateTrace(opts.TraceRequests)
	workers := make([]*loadWorker, opts.Tenants)
	for i := range workers {
		tr.Name = fmt.Sprintf("load-tenant-%d", i)
		var blob bytes.Buffer
		if err := trace.WriteBinary(&blob, tr); err != nil {
			return nil, err
		}
		workers[i] = &loadWorker{
			opts:   opts,
			client: client,
			blob:   blob.Bytes(),
			rng:    rand.New(rand.NewSource(int64(i) + 1)),
		}
	}

	start := time.Now()
	deadline := start.Add(opts.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *loadWorker) {
			defer wg.Done()
			w.loop(deadline)
		}(w)
	}
	wg.Wait()

	rep := &LoadReport{Tenants: opts.Tenants, Duration: time.Since(start).Seconds()}
	var lat []float64
	for _, w := range workers {
		rep.Requests += w.report.Requests
		rep.Accepted += w.report.Accepted
		rep.Shed += w.report.Shed
		rep.ClientErrors += w.report.ClientErrors
		rep.ServerErrors += w.report.ServerErrors
		rep.JobsAccepted += w.report.JobsAccepted
		lat = append(lat, w.latency...)
	}
	sort.Float64s(lat)
	rep.AcceptedP50Ms = percentile(lat, 0.50)
	rep.AcceptedP99Ms = percentile(lat, 0.99)

	// Drain: every accepted job must reach a terminal state.
	for _, w := range workers {
		done, failed, err := w.drainJobs(5 * time.Minute)
		if err != nil {
			return rep, err
		}
		rep.JobsCompleted += done
		rep.JobsFailed += failed
	}
	if opts.Log != nil {
		opts.Log(fmt.Sprintf(
			"load: %d tenants, %.1fs: %d requests, %d accepted, %d shed, %d client-err, %d server-err; jobs %d accepted / %d completed / %d failed; accepted p50 %.1fms p99 %.1fms",
			rep.Tenants, rep.Duration, rep.Requests, rep.Accepted, rep.Shed,
			rep.ClientErrors, rep.ServerErrors,
			rep.JobsAccepted, rep.JobsCompleted, rep.JobsFailed,
			rep.AcceptedP50Ms, rep.AcceptedP99Ms))
	}
	return rep, nil
}

// loop mixes uploads and submits until the deadline, backing off on
// shed responses.
func (w *loadWorker) loop(deadline time.Time) {
	consecutiveShed := 0
	for op := 0; time.Now().Before(deadline); op++ {
		upload := w.digest == "" || op%w.opts.UploadEvery == 0
		var status int
		var retryAfter time.Duration
		var err error
		if upload {
			status, retryAfter, err = w.doUpload()
		} else {
			status, retryAfter, err = w.doSubmit()
		}
		w.report.Requests++
		switch {
		case err != nil:
			w.report.ServerErrors++
		case status/100 == 2:
			w.report.Accepted++
			consecutiveShed = 0
			continue
		case status == http.StatusTooManyRequests:
			w.report.Shed++
			consecutiveShed++
			w.sleepUntil(deadline, backoff(consecutiveShed, retryAfter, w.rng))
			continue
		case status/100 == 4:
			w.report.ClientErrors++
		default:
			w.report.ServerErrors++
		}
		consecutiveShed = 0
		// Errors back off a little too, so a broken server is not
		// hammered in a tight loop.
		w.sleepUntil(deadline, backoff(1, 0, w.rng))
	}
}

// backoff is the jittered exponential client delay: 50ms doubling per
// consecutive shed (capped at 3.2s), never earlier than the server's
// Retry-After, plus up to 25% jitter to break synchronization across
// tenants.
func backoff(attempt int, retryAfter time.Duration, rng *rand.Rand) time.Duration {
	if attempt > 7 {
		attempt = 7
	}
	d := 50 * time.Millisecond << (attempt - 1)
	if retryAfter > d {
		d = retryAfter
	}
	return d + time.Duration(rng.Int63n(int64(d)/4+1))
}

// sleepUntil sleeps for d but never past the deadline.
func (w *loadWorker) sleepUntil(deadline time.Time, d time.Duration) {
	if remain := time.Until(deadline); d > remain {
		d = remain
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// do issues one request and classifies the response, returning the
// status, any Retry-After, and a transport error.
func (w *loadWorker) do(req *http.Request) (int, time.Duration, []byte, error) {
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		w.latency = append(w.latency, float64(time.Since(start))/float64(time.Millisecond))
	}
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retryAfter, body, nil
}

func (w *loadWorker) doUpload() (int, time.Duration, error) {
	req, err := http.NewRequest("POST", w.opts.BaseURL+"/v1/corpus",
		bytes.NewReader(w.blob))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	status, retryAfter, body, err := w.do(req)
	if err != nil || status/100 != 2 {
		return status, retryAfter, err
	}
	var ingest struct {
		Entry struct {
			Digest string `json:"digest"`
		} `json:"entry"`
	}
	if err := json.Unmarshal(body, &ingest); err != nil || ingest.Entry.Digest == "" {
		return status, retryAfter, fmt.Errorf("load: corpus upload response %q: %v", body, err)
	}
	w.digest = ingest.Entry.Digest
	return status, retryAfter, nil
}

func (w *loadWorker) doSubmit() (int, time.Duration, error) {
	spec := map[string]any{"in": "corpus:" + w.digest, "outformat": "bin"}
	specBytes, _ := json.Marshal(spec)
	req, err := http.NewRequest("POST", w.opts.BaseURL+"/v1/jobs", bytes.NewReader(specBytes))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	status, retryAfter, body, err := w.do(req)
	if err != nil || status/100 != 2 {
		return status, retryAfter, err
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		return status, retryAfter, fmt.Errorf("load: submit response %q: %v", body, err)
	}
	w.report.JobsAccepted++
	w.jobIDs = append(w.jobIDs, job.ID)
	return status, retryAfter, nil
}

// drainJobs polls the tenant's accepted jobs to a terminal state.
func (w *loadWorker) drainJobs(timeout time.Duration) (done, failed int64, err error) {
	deadline := time.Now().Add(timeout)
	for _, id := range w.jobIDs {
		for {
			if time.Now().After(deadline) {
				return done, failed, fmt.Errorf("load: job %s not terminal after %s", id, timeout)
			}
			req, err := http.NewRequest("GET", w.opts.BaseURL+"/v1/jobs/"+id, nil)
			if err != nil {
				return done, failed, err
			}
			status, retryAfter, body, err := w.do(req)
			if err != nil {
				return done, failed, err
			}
			if status == http.StatusTooManyRequests {
				// Rate-limited poll: wait it out, the job is still ours.
				if retryAfter <= 0 {
					retryAfter = time.Second
				}
				time.Sleep(retryAfter)
				continue
			}
			if status/100 != 2 {
				return done, failed, fmt.Errorf("load: job %s status: %d %s", id, status, body)
			}
			var job struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal(body, &job); err != nil {
				return done, failed, fmt.Errorf("load: job status response %q: %w", body, err)
			}
			if job.State == "done" {
				done++
				break
			}
			if job.State == "failed" {
				failed++
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return done, failed, nil
}

// percentile over sorted ms latencies (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// TestBackoff pins the client delay contract for every attempt the
// loop can pass (attempt >= 1): at least the exponential step and at
// least the server's Retry-After, at most 25% jitter on top, and the
// step capped at 3.2s however long the shed streak.
func TestBackoff(t *testing.T) {
	cases := []struct {
		attempt    int
		retryAfter time.Duration
		base       time.Duration // max(step, retryAfter)
	}{
		{1, 0, 50 * time.Millisecond},
		{2, 0, 100 * time.Millisecond},
		{7, 0, 3200 * time.Millisecond},
		{8, 0, 3200 * time.Millisecond},
		{1000, 0, 3200 * time.Millisecond},
		{1, 2 * time.Second, 2 * time.Second},
		{7, time.Second, 3200 * time.Millisecond},
		{9, 5 * time.Second, 5 * time.Second},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		for i := 0; i < 200; i++ {
			d := backoff(tc.attempt, tc.retryAfter, rng)
			if d < tc.base || d > tc.base+tc.base/4 {
				t.Fatalf("backoff(%d, %v) = %v, want within [%v, %v]",
					tc.attempt, tc.retryAfter, d, tc.base, tc.base+tc.base/4)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		in   []float64
		p    float64
		want float64
	}{
		{nil, 0.50, 0},
		{nil, 0.99, 0},
		{[]float64{7}, 0.99, 7},
		{sorted, 0, 1},
		{sorted, 0.50, 5},
		{sorted, 0.99, 9},
		{sorted, 1, 10},
	}
	for _, tc := range cases {
		if got := percentile(tc.in, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.in, tc.p, got, tc.want)
		}
	}
}
