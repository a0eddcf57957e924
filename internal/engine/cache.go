package engine

// Result caching: a JobSpec digests to a fingerprint of exactly the
// fields that can change the output bytes, and RunJobCached
// short-circuits a job whose (input digest, fingerprint) key already
// has a cached output. The cache itself is a pluggable hook
// (ResultCache) so the engine stays storage-agnostic; the corpus
// store implements it.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"

	"repro/internal/infer"
	"repro/internal/obs"
)

// ResultCache stores reconstructed outputs keyed by CacheKey.
// *corpus.Store implements it.
type ResultCache interface {
	// LookupResult returns the on-disk path of the cached output for
	// key and the note stored with it.
	LookupResult(key string) (path string, note []byte, ok bool)
	// StoreResultNoted atomically stores under key the output write
	// produces — streamed straight into the cache's own staging file,
	// nothing held in between — together with the JSON note write
	// returns once the bytes are out (the job's report is only known
	// then). Storing an existing key is a no-op that returns the
	// existing path, so identical jobs racing on a key converge on one
	// file.
	StoreResultNoted(key, inputDigest string, write func(io.Writer) (note []byte, err error)) (string, error)
	// FittedModel returns the caller's own copy of the inference model
	// stored with the input: the fit of exactly those bytes, in file
	// order. nil when the cache keeps none for this input.
	FittedModel(inputDigest string) *infer.Model
}

// Fingerprint digests the semantic content of the normalized spec:
// every field that can change the output bytes, and none that cannot.
// Name only labels the job; In/Out locate rather than shape the data;
// Parallel selects a worker count whose output is locked
// byte-identical to the sequential pipeline by the engine tests; and
// baseline-only knobs are dropped unless their method is selected.
// Two specs with equal fingerprints run against the same input bytes
// therefore produce identical outputs.
func (s JobSpec) Fingerprint() string {
	n := s.Normalized()
	n.Name, n.In, n.Out = "", "", ""
	n.Parallel = 0
	if n.Device == "array" {
		// The default target digests as the empty string, so specs from
		// before the Device field keep their fingerprints (and cached
		// results). Non-default targets shape the output and enter the
		// digest.
		n.Device = ""
	}
	if n.Device != "ftl" {
		// Nested device configs only shape the output when their target
		// is selected (Validate rejects the mismatch anyway); nil
		// pointers vanish from the JSON, so specs predating these fields
		// keep their fingerprints and cached results.
		n.FTLConfig = nil
	}
	if n.Device != "host" {
		n.HostConfig = nil
	}
	if n.OutFormat != "fio" {
		n.FIODevice = ""
	}
	if n.Method != "fixed-th" {
		n.ThresholdUS = 0
	}
	if n.Method != "acceleration" {
		n.Factor = 0
	}
	b, err := json.Marshal(n)
	if err != nil {
		// A JobSpec is plain data; marshaling cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CacheKey is the result-cache key for running spec against the input
// with the given content digest.
func CacheKey(inputDigest string, spec JobSpec) string {
	h := sha256.New()
	io.WriteString(h, "tracetracker-result-v1\x00")
	io.WriteString(h, inputDigest)
	io.WriteString(h, "\x00")
	io.WriteString(h, spec.Fingerprint())
	return hex.EncodeToString(h.Sum(nil))
}

// cacheNote is what RunJobCached stores beside each result, so a hit
// can restore the report and an operator can see what produced a
// cache file.
type cacheNote struct {
	Spec   JobSpec `json:"spec"`
	Report *Report `json:"report,omitempty"`
}

// RunJobCached executes one job with result caching. A miss runs the
// job with the cache's staging file as its output sink — the stage
// graph's encoder writes straight into it, so the cache entry is the
// job's one and only copy of the output and the note (spec + report)
// is recorded when the last byte is out. A hit runs nothing and
// restores the report from the note. Either way the result is the
// cache file, copied to spec.Out when the spec names one. inputDigest
// must be the content digest of the bytes at spec.In — the caller (the
// corpus layer) owns that mapping. The returned bool reports a hit:
// the output came from the cache and no reconstruction ran.
//
// The engine Config deliberately does not enter the key: its fields
// either shape scheduling (Workers, shard cuts — byte-identical by
// the engine's core invariant) or must be held fixed per cache by the
// caller (Core options).
func RunJobCached(cfg Config, spec JobSpec, inputDigest string, cache ResultCache) (*JobResult, bool, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	key := CacheKey(inputDigest, spec)
	lsp := cfg.Trace.Start(cfg.Trace.Root(), obs.JobSpanNames[obs.JobSpanCacheLookup])
	path, note, ok := cache.LookupResult(key)
	var fitted *infer.Model
	if !ok && fitsAsStored(spec) {
		fitted = cache.FittedModel(inputDigest)
	}
	lsp.SetAttr("hit", boolAttr(ok))
	lsp.SetAttr("model", boolAttr(fitted != nil))
	lsp.End()
	cfg.Metrics.CacheLookup(ok)
	var rep *Report
	ran := false
	if !ok {
		ssp := cfg.Trace.Start(cfg.Trace.Root(), obs.JobSpanNames[obs.JobSpanStore])
		var err error
		path, err = cache.StoreResultNoted(key, inputDigest, func(w io.Writer) ([]byte, error) {
			ran = true
			var err error
			if rep, err = runJobTo(cfg, spec, w, fitted); err != nil {
				return nil, err
			}
			return json.Marshal(cacheNote{Spec: spec, Report: rep})
		})
		ssp.End()
		if err != nil {
			return nil, false, err
		}
		if !ran {
			// An identical job landed the key between the lookup and the
			// store; its note carries the report.
			_, note, _ = cache.LookupResult(key)
		}
	}
	if !ran {
		// A missing or unreadable note only loses the restored report.
		var n cacheNote
		json.Unmarshal(note, &n)
		rep = n.Report
	}
	if spec.Out != "" {
		if err := copyFileAtomic(spec.Out, path); err != nil {
			return nil, false, err
		}
		path = spec.Out
	}
	return &JobResult{Report: rep, OutPath: path}, !ran, nil
}

// fitsAsStored reports whether the model the job would fit for itself
// is the one a cache stores with the input — the fit of the blob in file
// order: a method that fits at all, and no reorder window between the
// file and the classifier. (That the input needs a model is the store's
// side of the rule: it keeps one for Tsdev-unknown blobs only.) Every
// other job fits per job.
func fitsAsStored(spec JobSpec) bool {
	switch spec.Method {
	case "tracetracker", "dynamic":
		return spec.ReorderWindow <= 1
	}
	return false
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// copyFileAtomic lands a copy of src at dst via the engine's partial
// file + rename discipline.
func copyFileAtomic(dst, src string) error {
	return writeAtomically(dst, func(w io.Writer) error {
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(w, f)
		return err
	})
}
