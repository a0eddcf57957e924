package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/obs"
)

// park puts a synthetic job straight into the table, bypassing the
// queue, and applies retention as a finish would. A test pins a state
// with it — a running job holding a quota slot, a queued one with no
// timeline — without a timing-dependent reconstruction.
func (t *jobs) park(j job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := jobSeq(j.ID); ok && n > t.nextID {
		t.nextID = n
	}
	t.table[j.ID] = &j
	t.order = append(t.order, j.ID)
	t.prune()
}

// jsonString is s as a JSON string literal.
func jsonString(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobTransitions walks every (from, to) pair of states through the
// transition function, live and in replay, then replays a journal with
// two finish records for one ID in both orders: the last one sets the
// state, and fields only the earlier one wrote survive it.
func TestJobTransitions(t *testing.T) {
	legal := map[bool]map[string]bool{
		false: {"queued>running": true, "running>done": true, "running>failed": true},
		true: {
			"queued>done": true, "queued>failed": true, "done>done": true,
			"done>failed": true, "failed>done": true, "failed>failed": true,
		},
	}
	states := []string{stateQueued, stateRunning, stateDone, stateFailed}
	for _, replay := range []bool{false, true} {
		for _, from := range states {
			for _, to := range states {
				j := &job{ID: "job-1", State: from}
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					transition(j, to, replay)
					return false
				}()
				want := legal[replay][from+">"+to]
				switch {
				case want && (panicked || j.State != to):
					t.Errorf("replay=%v %s -> %s: legal edge not applied (panic %v, state %s)", replay, from, to, panicked, j.State)
				case !want && (!panicked || j.State != from):
					t.Errorf("replay=%v %s -> %s: illegal edge did not panic (state %s)", replay, from, to, j.State)
				}
			}
		}
	}

	// The result cache replay resolves done jobs in: one result, under
	// the key job-1 and job-3 finished with.
	dir := t.TempDir()
	store, err := corpus.Open(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	key, gone := engine.CacheKey("d", engine.JobSpec{}), engine.CacheKey("gone", engine.JobSpec{})
	result, err := store.StoreResultNoted(key, "d", func(w io.Writer) ([]byte, error) {
		_, err := io.WriteString(w, "result\n")
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := openJournal(filepath.Join(dir, "journal.jsonl"), obs.NopLogger())
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	sub := func(id string, s int) journalRecord {
		return journalRecord{Op: journalSubmit, ID: id, Time: at(s), Spec: &engine.JobSpec{Name: id, In: "corpus:d"}, Digest: "d",
			Tenant: "alice", TraceID: "trace-" + id}
	}
	// A job of an earlier daemon on a server-side path: no digest.
	legacy := sub("job-6", 6)
	legacy.Digest, legacy.Spec = "", &engine.JobSpec{Name: "job-6", In: "job-6.csv"}
	recs := []journalRecord{
		sub("job-1", 1), sub("job-2", 2), sub("job-3", 3), sub("job-4", 4), sub("job-5", 5), legacy,
		{Op: journalDone, ID: "job-1", Time: at(11), Key: key, Report: &jobReport{Requests: 10}, TraceID: "trace-run-1"},
		{Op: journalFail, ID: "job-2", Time: at(12), Error: "boom", TraceID: "trace-run-2"},
		// Done, then fail: the fail wins and keeps the done fields.
		{Op: journalDone, ID: "job-3", Time: at(13), Key: key, Cached: true, Report: &jobReport{Requests: 3}},
		{Op: journalFail, ID: "job-3", Time: at(14), Error: "late"},
		// Fail, then done with its result gone from the cache: the done wins.
		{Op: journalFail, ID: "job-4", Time: at(15), Error: "early"},
		{Op: journalDone, ID: "job-4", Time: at(16), Key: gone, Report: &jobReport{Requests: 4}},
		// The legacy job stays failed whatever its finish record says.
		{Op: journalDone, ID: "job-6", Time: at(16), Report: &jobReport{Requests: 6}},
		{Op: journalDone, ID: "job-9", Time: at(17), Key: key},
		{Op: "bogus", ID: "job-1", Time: at(18)},
		sub("job-1", 19),
		{Op: journalSubmit, ID: "job-8", Time: at(20)},
	}
	// No executors: the re-queued job-5 stays queued.
	tbl := newJobs(obs.NewRegistry(), 0, 8, jnl, nil)
	if restored, requeued := tbl.Replay(recs, store); restored != 6 || requeued != 1 {
		t.Fatalf("Replay = %d restored, %d requeued; want 6, 1", restored, requeued)
	}
	const spec = `"spec":{"name":"%[1]s","in":"corpus:d"},"digest":"d","tenant":"alice"`
	want := map[string]string{
		"job-1": `{"id":"job-1","name":"job-1","state":"done","submitted":"2026-01-02T03:04:06Z","finished":"2026-01-02T03:04:16Z",` + spec + `,` +
			`"report":{"requests":10,"workers":0,"idle_count":0,"idle_total_us":0,"async_count":0},"result_url":"/v1/jobs/job-1/result","trace_id":"trace-run-1"}`,
		"job-2": `{"id":"job-2","name":"job-2","state":"failed","error":"boom","submitted":"2026-01-02T03:04:07Z","finished":"2026-01-02T03:04:17Z",` + spec + `,"trace_id":"trace-job-2"}`,
		"job-3": `{"id":"job-3","name":"job-3","state":"failed","error":"late","submitted":"2026-01-02T03:04:08Z","finished":"2026-01-02T03:04:19Z",` + spec + `,"cached":true,` +
			`"report":{"requests":3,"workers":0,"idle_count":0,"idle_total_us":0,"async_count":0},"result_url":"/v1/jobs/job-3/result","trace_id":"trace-job-3"}`,
		"job-4": `{"id":"job-4","name":"job-4","state":"done","error":"early","submitted":"2026-01-02T03:04:09Z","finished":"2026-01-02T03:04:21Z",` + spec + `,` +
			`"report":{"requests":4,"workers":0,"idle_count":0,"idle_total_us":0,"async_count":0},"trace_id":"trace-job-4"}`,
		"job-5": `{"id":"job-5","name":"job-5","state":"queued","submitted":"2026-01-02T03:04:10Z",` + spec + `,"trace_id":"trace-job-5"}`,
		"job-6": `{"id":"job-6","name":"job-6","state":"failed","error":%[2]s,"submitted":"2026-01-02T03:04:11Z","finished":"2026-01-02T03:04:11Z",` +
			`"spec":{"name":"job-6","in":"job-6.csv"},"tenant":"alice","trace_id":"trace-job-6"}`,
	}
	page := tbl.List(-1, 100)
	if len(page.Jobs) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(page.Jobs), len(want))
	}
	for _, j := range page.Jobs {
		got, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if w := fmt.Sprintf(want[j.ID], j.ID, jsonString(t, errPathInput)); string(got) != w {
			t.Errorf("%s replayed to\n%s\nwant\n%s", j.ID, got, w)
		}
		// The result file is the server's to serve, never published.
		if wantPath := map[string]string{"job-1": result, "job-3": result}[j.ID]; j.outPath != wantPath {
			t.Errorf("%s replayed with result file %q, want %q", j.ID, j.outPath, wantPath)
		}
	}
	// The highest submitted sequence number seeds the next ID.
	next, err := tbl.Submit(engine.JobSpec{In: "corpus:d"}, "d", anonTenant, obs.TraceContext{}, 0)
	if err != nil || next.ID != "job-7" {
		t.Fatalf("Submit after replay = %q, %v; want job-7", next.ID, err)
	}
	tbl.Close(0)
}
