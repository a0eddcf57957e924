package main

// The job journal is an append-only JSONL file under the daemon's
// data directory: one "submit" record when a job is accepted, one
// "done" or "fail" record when it finishes. On startup the journal is
// replayed — finished jobs are restored (a done job's result resolves
// through its cache key in the result cache), and jobs with a submit but
// no finish were interrupted by a crash and re-queue. A torn final line
// (crash mid-append) is ignored. Every journal problem is a record of
// the daemon's logger, never raw text on stderr.

import (
	"bufio"
	"encoding/json"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/faultfs"
)

// Journal record operations.
const (
	journalSubmit = "submit"
	journalDone   = "done"
	journalFail   = "fail"
)

// journalRecord is one journal line.
type journalRecord struct {
	Op   string    `json:"op"`
	ID   string    `json:"id"`
	Time time.Time `json:"time"`
	// Submit payload.
	Spec   *engine.JobSpec `json:"spec,omitempty"`
	Digest string          `json:"digest,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	// Finish payload.
	Key    string     `json:"key,omitempty"`
	Cached bool       `json:"cached,omitempty"`
	Report *jobReport `json:"report,omitempty"`
	Error  string     `json:"error,omitempty"`
	// TraceID names the W3C trace the job files under: the submitting
	// request's trace on submit records, the executed trace on done
	// records — so restored jobs keep their trace identity even though
	// the timeline itself dies with the old process.
	TraceID string `json:"trace_id,omitempty"`
}

// journal is the append handle; writes are serialized and synced per
// record, so a finished job survives an immediate crash.
type journal struct {
	path string
	log  *slog.Logger

	// faults, when set (setFaults, test-only), injects write faults
	// into appends under faultfs.SinkJournal.
	faults *faultfs.Injector

	mu     sync.Mutex
	f      *os.File
	closed bool
}

// setFaults arms the journal with a write-fault injector. Test-only;
// call before appends begin.
func (j *journal) setFaults(in *faultfs.Injector) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.faults = in
}

// openJournal reads every intact record of the journal at path (a
// missing file is an empty journal) and opens it for appending; log
// takes the journal's warnings and errors.
func openJournal(path string, log *slog.Logger) (*journal, []journalRecord, error) {
	var recs []journalRecord
	if data, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(data)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var rec journalRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				// A torn tail from a crash mid-append is expected;
				// anything after it cannot be trusted either.
				log.Warn("journal: ignoring a torn line and every record after it",
					"path", path, "intact", len(recs), "error", err)
				break
			}
			recs = append(recs, rec)
		}
		data.Close()
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, nil, err
	}
	return &journal{path: path, log: log, f: f}, recs, nil
}

// append writes one record and syncs it to disk. Appends after close
// (an executor outliving the drain deadline) are dropped: the job
// stays "interrupted" in the journal and re-runs on the next start.
func (j *journal) append(rec journalRecord) {
	data, err := json.Marshal(rec)
	if err != nil {
		j.log.Error("journal: record not written", "op", rec.Op, "job", rec.ID, "error", err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	if _, err := j.faults.Writer(faultfs.SinkJournal, j.f).Write(append(data, '\n')); err != nil {
		// The job stays "interrupted" in the journal (a torn tail is
		// tolerated by replay) and re-runs on the next start.
		j.log.Error("journal: record not written", "op", rec.Op, "job", rec.ID, "error", err)
		return
	}
	if err := j.f.Sync(); err != nil {
		j.log.Error("journal: record not synced", "op", rec.Op, "job", rec.ID, "error", err)
	}
}

// close flushes and closes the journal, reporting whether this call did;
// later appends are dropped.
func (j *journal) close() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return false
	}
	j.closed = true
	j.f.Sync()
	j.f.Close()
	return true
}

// compactAndClose atomically rewrites the journal to exactly recs and
// closes it. A clean shutdown calls this with the retained jobs'
// records, so the journal stays bounded by the retention caps instead
// of growing with the daemon's whole history. On any failure the
// existing journal is left as it was — replay tolerates the longer
// form. A closed journal takes no appends, so the rewrite needs no lock.
func (j *journal) compactAndClose(recs []journalRecord) {
	if !j.close() {
		return
	}
	if err := j.rewrite(recs); err != nil {
		j.log.Error("journal: compaction failed; the journal keeps its longer form", "error", err)
	}
}

// rewrite atomically replaces the journal file with exactly recs.
func (j *journal) rewrite(recs []journalRecord) error {
	var buf []byte
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = append(buf, data...)
		buf = append(buf, '\n')
	}
	tmp := j.path + ".compact"
	if err := os.WriteFile(tmp, buf, 0o666); err != nil {
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
