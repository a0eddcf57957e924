package corpus

// Result cache: reconstructed outputs keyed by the engine's
// (input digest, job fingerprint) cache key. *Store satisfies
// engine.ResultCache structurally, so the corpus package stays free of
// engine imports and the engine free of storage concerns.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/faultfs"
)

// ResultMeta is the sidecar stored beside each cached result.
type ResultMeta struct {
	// Key is the cache key the result is stored under.
	Key string `json:"key"`
	// InputDigest names the corpus trace the result was computed from;
	// GC drops results whose input is gone.
	InputDigest string `json:"input_digest"`
	// Note is an opaque JSON document the caller stored with the
	// result (the engine records the normalized spec and report).
	Note json.RawMessage `json:"note,omitempty"`
	// Created is when the result landed (UTC).
	Created time.Time `json:"created"`
}

func (s *Store) resultPath(key string) string {
	return filepath.Join(s.resultsDir(), key)
}
func (s *Store) resultMetaPath(key string) string {
	return s.resultPath(key) + ".json"
}

// LookupResult returns the on-disk path of the cached output for key
// and the note stored with it. It implements the engine's result-cache
// hook, and counts nothing: a job answered from the cache is its
// caller's to count.
func (s *Store) LookupResult(key string) (string, []byte, bool) {
	if !isHex(key) {
		return "", nil, false
	}
	var meta ResultMeta
	if err := readJSON(s.resultMetaPath(key), &meta); err != nil {
		return "", nil, false
	}
	p := s.resultPath(key)
	if _, err := os.Stat(p); err != nil {
		return "", nil, false
	}
	return p, []byte(meta.Note), true
}

// StoreResult atomically stores the output produced by write under
// key with a note known up front; see StoreResultNoted.
func (s *Store) StoreResult(key, inputDigest string, note []byte, write func(io.Writer) error) (string, error) {
	if len(note) > 0 && !json.Valid(note) {
		// Up front: a bad note must not cost a run of write.
		return "", fmt.Errorf("corpus: result note must be valid JSON")
	}
	return s.StoreResultNoted(key, inputDigest, func(w io.Writer) ([]byte, error) {
		return note, write(w)
	})
}

// StoreResultNoted atomically stores the output produced by write
// under key, recording inputDigest and the note write returns (valid
// JSON, or empty) in the sidecar — the note-after-write form, for a
// producer that only knows what to say about the bytes once they are
// written (the engine's report). write streams straight into the
// result's staging file, so the caller never holds the output.
// Storing an existing key is a no-op that returns the existing path,
// and racing writers of one key converge on whichever landed first.
// The blob lands before the sidecar; a crash between the two leaves
// an invisible result that GC removes.
func (s *Store) StoreResultNoted(key, inputDigest string, write func(io.Writer) (note []byte, err error)) (string, error) {
	if !isHex(key) {
		return "", fmt.Errorf("corpus: result key %q is not a hex digest", key)
	}
	if p, _, ok := s.LookupResult(key); ok {
		return p, nil
	}
	tmpf, err := os.CreateTemp(s.tmpDir(), "result-*")
	if err != nil {
		return "", err
	}
	tmpName := tmpf.Name()
	keep := false
	defer func() {
		tmpf.Close()
		if !keep {
			os.Remove(tmpName)
		}
	}()
	note, err := write(s.sinkWriter(faultfs.SinkCorpusResult, tmpf))
	if err != nil {
		return "", err
	}
	if len(note) > 0 && !json.Valid(note) {
		return "", fmt.Errorf("corpus: result note must be valid JSON")
	}
	if err := tmpf.Close(); err != nil {
		return "", err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(s.resultMetaPath(key)); err == nil {
		// Another writer landed the same key first; keep theirs.
		return s.resultPath(key), nil
	}
	if err := os.Rename(tmpName, s.resultPath(key)); err != nil {
		return "", err
	}
	keep = true
	meta := ResultMeta{Key: key, InputDigest: inputDigest, Note: note, Created: time.Now().UTC()}
	if err := writeJSONAtomic(s.tmpDir(), s.resultMetaPath(key), meta); err != nil {
		return "", err
	}
	return s.resultPath(key), nil
}

// OpenResult opens a cached result for reading.
func (s *Store) OpenResult(key string) (io.ReadCloser, ResultMeta, error) {
	if !isHex(key) {
		return nil, ResultMeta{}, fmt.Errorf("corpus: result key %q is not a hex digest", key)
	}
	var meta ResultMeta
	if err := readJSON(s.resultMetaPath(key), &meta); err != nil {
		return nil, ResultMeta{}, fmt.Errorf("corpus: no cached result for key %s", key)
	}
	f, err := os.Open(s.resultPath(key))
	if err != nil {
		return nil, ResultMeta{}, err
	}
	return f, meta, nil
}

// dropResultsLocked removes every cached result whose sidecar fails to
// read or names an input digest drop reports, and counts them. A result
// is served only while both of its files are there (LookupResult).
//
//tracelint:holds mu
func (s *Store) dropResultsLocked(drop func(digest string) bool) (int, error) {
	return sweep(s.resultsDir(), func(name string) bool {
		key, ok := strings.CutSuffix(name, ".json")
		var meta ResultMeta
		if !ok || readJSON(s.resultMetaPath(key), &meta) == nil && !drop(meta.InputDigest) {
			return false
		}
		os.Remove(s.resultPath(key)) // sweep removes the sidecar
		return true
	})
}
