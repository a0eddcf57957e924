// Package corpus is the content-addressed store underneath the
// reconstruction pipeline: traces land as immutable blobs named by
// their SHA-256 digest with a one-pass characterization sidecar, and
// reconstructed outputs are cached by (input digest, job fingerprint)
// so identical jobs never redo a reconstruction.
//
// Layout under the store root:
//
//	objects/<sha256>        trace blob, byte-exact as ingested
//	objects/<sha256>.json   sidecar: format + one-pass summary + fitted
//	                        inference model, Tsdev-unknown csv/bin/spc (Entry)
//	renders/<sha256>        a text blob's records in arrival order, as
//	                        bin: what its jobs read (JobInput)
//	results/<key>           cached reconstruction output
//	results/<key>.json      sidecar: input digest + caller note (ResultMeta)
//	tmp/                    staging for atomic writes
//
// Every write lands via tmp/ + rename, so a crashed ingest or cache
// fill never leaves a partial object visible. The sidecars are the
// source of truth: Open always rebuilds the catalogue from them.
package corpus

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/infer"
)

// ErrBadTrace marks ingest failures caused by the uploaded bytes (or
// the caller's format hint) rather than by the store: undetectable or
// unparseable data, or an empty trace. Servers map it to a client
// error; anything else is a storage fault.
var ErrBadTrace = errors.New("corpus: not an ingestible trace")

// Entry describes one ingested trace: identity, format, and the
// one-pass characterization recorded at ingest so catalogue queries
// never re-read blobs. Order-sensitive metrics (SeqFraction) are
// computed in arrival order, the order every job reads
// (trace.OpenFileDecoder); an msrc or spc sidecar written before ingest
// read that order keeps its file-order figure.
type Entry struct {
	// Digest is the lowercase hex SHA-256 of the blob bytes.
	Digest string `json:"digest"`
	// Format is the concrete input format ("csv", "bin", "msrc", "spc").
	Format string `json:"format"`
	// Size is the blob length in bytes.
	Size int64 `json:"size"`
	// Tenant is the identity that first ingested the blob ("" before
	// multi-tenant servers, or for anonymous ingest); servers charge
	// the blob's bytes against this tenant's quota.
	Tenant string `json:"tenant,omitempty"`
	// Name/Workload/Set/TsdevKnown mirror the trace metadata.
	Name       string `json:"name,omitempty"`
	Workload   string `json:"workload,omitempty"`
	Set        string `json:"set,omitempty"`
	TsdevKnown bool   `json:"tsdev_known"`
	// Requests through SeqFraction are the one-pass summary.
	Requests     int64         `json:"requests"`
	Duration     time.Duration `json:"duration_ns"`
	TotalBytes   int64         `json:"total_bytes"`
	ReadFraction float64       `json:"read_fraction"`
	SeqFraction  float64       `json:"seq_fraction"`
	// Model is the inference model fitted to this blob in arrival
	// order, in the same decode pass as the summary — the software half
	// of the co-evaluation, a function of the old trace alone, so a job
	// that would fit exactly that reads it here (FittedModel) instead of
	// decoding the blob once more. Nil for Tsdev-known blobs (msrc
	// among them), traces too sparse to fit, and sidecars written before
	// the field existed or, for spc, before ingest fitted that format:
	// jobs on those fit for themselves.
	Model *infer.Model `json:"model,omitempty"`
	// Ingested is when the blob first landed (UTC).
	Ingested time.Time `json:"ingested"`
}

// isHex reports whether s is non-empty lowercase hex — the only shape
// ever spliced into a store path, which also blocks traversal.
func isHex(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeJSONAtomic marshals v and lands it at path via the store's tmp
// directory and a rename.
func writeJSONAtomic(tmpDir, path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(tmpDir, "json-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(name)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// readJSON unmarshals the file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("corpus: %s: %w", filepath.Base(path), err)
	}
	return nil
}
