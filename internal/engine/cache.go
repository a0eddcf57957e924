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

	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ResultCache stores reconstructed outputs keyed by CacheKey.
// *corpus.Store implements it.
type ResultCache interface {
	// LookupResult returns the on-disk path of the cached output for
	// key and the note stored with it. It counts nothing: the caller of
	// RunJobCached counts the job by the hit it returns.
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
	// stored with the input: the fit of exactly those bytes, in arrival
	// order (trace.OpenFileDecoder). nil when the cache keeps none for
	// this input.
	FittedModel(inputDigest string) *infer.Model
	// JobInput returns a file a job may decode in place of the input
	// read as format, and that file's format: the same records in the
	// same order (the ones trace.OpenFileDecoder yields for the input),
	// already decoded once — a text upload's bin rendering. ok is false
	// when the cache keeps none; the job reads its spec's In.
	JobInput(inputDigest, format string) (path, pathFormat string, ok bool)
}

// Fingerprint digests the semantic content of the normalized spec:
// every field that can change the output bytes, and none that cannot.
// Name only labels the job; In/Out locate rather than shape the data;
// and baseline-only knobs are dropped unless their method is selected.
// Two specs with equal fingerprints run against the same input bytes
// therefore produce identical outputs.
func (s JobSpec) Fingerprint() string {
	n := s.Normalized()
	n.Name, n.In, n.Out = "", "", ""
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
	meth, _ := methodFor(n.Method)
	if meth.knob != "threshold_us" {
		n.ThresholdUS = 0
	}
	if meth.knob != "factor" {
		n.Factor = 0
	}
	// The input format's reorder window digests under the key the spec
	// field it replaced had, last and omitted when zero, so no key moves.
	b, err := json.Marshal(struct {
		JobSpec
		ReorderWindow int `json:"reorder_window,omitempty"`
	}{n, trace.ReorderWindow(n.InFormat)})
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
// cache file; spec.Out is not consulted. inputDigest must be the
// content digest of the bytes at spec.In — the caller (the corpus
// layer) owns that mapping. The returned bool reports a hit:
// the output came from the cache and no reconstruction ran.
//
// A miss decodes the cache's JobInput for the digest when it offers
// one — a text upload's bin rendering, the same records without the
// parse — and spec.In otherwise, to the same bytes either way. Only the
// file read changes: the key, the note's spec and the report are the
// caller's spec's.
//
// The engine Config deliberately does not enter the key: its fields
// shape scheduling (Workers, shard cuts — byte-identical by the
// engine's core invariant) or instrumentation, never the output, so
// the key covers everything that does.
func RunJobCached(cfg Config, spec JobSpec, inputDigest string, cache ResultCache) (*JobResult, bool, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	key := CacheKey(inputDigest, spec)
	lsp := cfg.Trace.Start(cfg.Trace.Root(), obs.JobSpanCacheLookup)
	path, note, ok := cache.LookupResult(key)
	var fitted *infer.Model
	run, rendered := spec, false
	if !ok {
		if meth, _ := methodFor(spec.Method); meth.ownModel {
			fitted = cache.FittedModel(inputDigest)
		}
		if in, format, has := cache.JobInput(inputDigest, spec.InFormat); has {
			run.In, run.InFormat, rendered = in, format, true
		}
	}
	lsp.SetAttr(obs.AttrHit, boolAttr(ok))
	lsp.SetAttr(obs.AttrModel, boolAttr(fitted != nil))
	lsp.End()
	var rep *Report
	ran := false
	if !ok {
		ssp := cfg.Trace.Start(cfg.Trace.Root(), obs.JobSpanStore)
		var err error
		path, err = cache.StoreResultNoted(key, inputDigest, func(w io.Writer) ([]byte, error) {
			ran = true
			cfg.Metrics.JobInput(rendered)
			var err error
			if rep, err = runJobTo(cfg, run, w, fitted); err != nil {
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
	return &JobResult{Report: rep, OutPath: path}, !ran, nil
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
