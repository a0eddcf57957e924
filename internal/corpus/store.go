package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/spare"
	"repro/internal/trace"
)

// Store is a content-addressed trace corpus rooted at one directory.
// It is safe for concurrent use within a process; concurrent processes
// sharing a root are safe for ingest and result writes (atomic
// renames) but each maintains its own in-memory catalogue.
type Store struct {
	root string

	// parallel is the worker count for decoding a staged upload.
	parallel atomic.Int32

	// metrics is the optional instrumentation hook (SetMetrics).
	metrics atomic.Pointer[obs.CorpusMetrics]

	// faults is the optional write-fault injector (SetFaultInjector):
	// resilience tests arm it to prove disk faults surface as storage
	// errors with the store left consistent.
	faults atomic.Pointer[faultfs.Injector]

	// fits keeps one ingest's model-fit classifier, at most
	// fitScratchBound bytes of it, for the next ingest to fit with.
	fits *spare.List[*infer.StreamClassifier]

	mu      sync.Mutex
	entries map[string]Entry // guarded by mu
}

// SetParallel sets the number of workers Ingest decodes the staged
// upload with (trace.OpenFileDecoder: values below 2, and stagings
// under trace.ParallelMinBytes, decode sequentially).
func (s *Store) SetParallel(n int) {
	s.parallel.Store(int32(n))
}

// SetMetrics attaches (or, with nil, detaches) the store's
// instrumentation hook: ingest volume, digest dedup and result-cache
// traffic. Safe to call concurrently with store operations.
func (s *Store) SetMetrics(m *obs.CorpusMetrics) {
	s.metrics.Store(m)
}

// SetFaultInjector attaches (or, with nil, detaches) a write-fault
// injector covering the store's durable write paths: the ingest blob
// spool (faultfs.SinkCorpusObject) and the result-cache fill
// (faultfs.SinkCorpusResult). Test-only; safe to call concurrently
// with store operations.
func (s *Store) SetFaultInjector(in *faultfs.Injector) {
	s.faults.Store(in)
}

// fitScratchBound is the most a store keeps of an ingest's model fit
// between ingests, in bytes: the classifier of one upload of up to
// ≈ 150,000 requests (12 B a request in samples and group tags, plus
// the sort keys of the largest groups: 2.4 MB at 100,000 webmail
// requests). A larger fit's storage is dropped with the fit.
const fitScratchBound = 4 << 20

// sinkWriter wraps w with the attached fault injector's rule for sink
// (a pass-through when none is attached).
func (s *Store) sinkWriter(sink string, w io.Writer) io.Writer {
	return s.faults.Load().Writer(sink, w)
}

// Open opens (creating if needed) the store rooted at root. The
// catalogue is always rebuilt from the object sidecars — the source of
// truth — so traces another process ingested into the same root are
// never hidden.
func Open(root string) (*Store, error) {
	s := &Store{root: root, entries: make(map[string]Entry),
		fits: spare.New(1, (*infer.StreamClassifier).Bytes)}
	for _, d := range []string{root, s.objectsDir(), s.resultsDir(), s.tmpDir()} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return nil, err
		}
	}
	if err := s.rebuildLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) objectsDir() string { return filepath.Join(s.root, "objects") }
func (s *Store) resultsDir() string { return filepath.Join(s.root, "results") }
func (s *Store) tmpDir() string     { return filepath.Join(s.root, "tmp") }

func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.objectsDir(), digest)
}
func (s *Store) sidecarPath(digest string) string {
	return s.blobPath(digest) + ".json"
}

// rebuildLocked reconstructs the catalogue from the object sidecars
// (the source of truth). Sidecars without a blob are skipped; blobs
// without a sidecar are left for GC.
//
//tracelint:holds mu
func (s *Store) rebuildLocked() error {
	names, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return err
	}
	entries := make(map[string]Entry)
	for _, de := range names {
		digest, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || !isHex(digest) {
			continue
		}
		var e Entry
		if err := readJSON(s.sidecarPath(digest), &e); err != nil {
			continue
		}
		if e.Digest != digest {
			continue
		}
		if _, err := os.Stat(s.blobPath(digest)); err != nil {
			continue
		}
		entries[digest] = e
	}
	s.entries = entries
	// Stores written by earlier versions hold an index.json export that
	// nothing reads or refreshes any more: drop it rather than leave it
	// going stale (on any other store the file is absent and this fails,
	// harmlessly).
	os.Remove(filepath.Join(s.root, "index.json"))
	return nil
}

// Rebuild re-derives the catalogue from the sidecars on disk, picking
// up what other processes ingested into the same root.
func (s *Store) Rebuild() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuildLocked()
}

// The ingest copy stages an upload through a ring of ingestRing reused
// chunks of ingestChunk bytes, so one upload in flight holds at most
// ingestRing·ingestChunk (512 KiB) of copy buffer whatever its size.
const (
	ingestChunk = 128 << 10
	ingestRing  = 4
)

type ingestBuf = [ingestChunk]byte

var ingestBufs = sync.Pool{New: func() any { return new(ingestBuf) }}

// spoolHashed copies src to dst and digests the same bytes into h, the
// hash beside the write rather than in front of it: the calling
// goroutine fills each chunk from src and writes it to dst while one
// hasher goroutine digests it. The hasher is joined before spoolHashed
// returns on every path, so h is complete (or abandoned) and the ring
// is back in the pool. The failing side is reported apart: readErr is
// src's own error, chain intact (a client fault); writeErr is dst's (a
// storage fault).
func spoolHashed(dst io.Writer, h hash.Hash, src io.Reader) (n int64, readErr, writeErr error) {
	// Each channel can hold the whole ring, so no send ever blocks: the
	// reader waits only on free, for the hasher to give a chunk back.
	free := make(chan *ingestBuf, ingestRing)
	for range ingestRing {
		free <- ingestBufs.Get().(*ingestBuf)
	}
	full := make(chan []byte, ingestRing)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range full {
			h.Write(b)
			free <- (*ingestBuf)(b[:ingestChunk])
		}
	}()
	defer func() {
		close(full)
		<-done
		close(free)
		for b := range free {
			ingestBufs.Put(b)
		}
	}()
	for {
		buf := <-free
		m, err := fill(src, buf[:])
		if m == 0 {
			free <- buf
		} else {
			full <- buf[:m]
			w, werr := dst.Write(buf[:m])
			n += int64(w)
			if werr == nil && w < m {
				werr = io.ErrShortWrite
			}
			if werr != nil {
				return n, nil, werr
			}
		}
		if err == io.EOF {
			return n, nil, nil
		}
		if err != nil {
			return n, err, nil
		}
	}
}

// fill reads src into b until b is full or src returns an error (io.EOF
// included), which it passes on unchanged. io.ReadFull would turn an
// EOF inside the chunk into io.ErrUnexpectedEOF, the error a truncated
// upload body reports, so a clean end and a cut one would look alike.
func fill(src io.Reader, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		k, err := src.Read(b[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// stagedDecodeErr classifies a failure to decode the staged upload: an
// *fs.PathError is the store's own disk failing to open or read the
// staging file (a storage fault); anything else is the trace's.
func stagedDecodeErr(format string, err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return fmt.Errorf("corpus: reading staged ingest: %w", err)
	}
	return fmt.Errorf("%w: as %s: %w", ErrBadTrace, format, err)
}

// Ingest adds one trace to the store. The upload is staged to tmp/
// while its SHA-256 digest is computed; a blob the store already holds
// under the same format returns its entry there (dedup by digest: the
// existing entry wins, the upload is discarded, nothing is decoded, and
// the returned bool is false). A new blob is decoded from the staged
// file like any job input for its metadata summary, then lands
// atomically. format "" or "auto" selects content sniffing, before
// anything is staged.
//
// A trace that fails to decode, or decodes to zero requests, is
// rejected and nothing is stored — the corpus only holds traces the
// pipeline can actually read. Errors from the upload side (including
// anything the reader r returns) keep their chain, so callers can
// classify wrapped sentinels like http.MaxBytesError; errors from the
// store's own disk are never wrapped in ErrBadTrace.
func (s *Store) Ingest(r io.Reader, format string) (Entry, bool, error) {
	return s.IngestAs(r, format, "")
}

// IngestAs is Ingest with a tenant attribution recorded on the entry
// for per-tenant accounting. On dedup the existing entry (and its
// original tenant) wins.
func (s *Store) IngestAs(r io.Reader, format, tenant string) (Entry, bool, error) {
	format, r, err := trace.ResolveFormat(format, r)
	if err != nil {
		return Entry{}, false, fmt.Errorf("%w: %w", ErrBadTrace, err)
	}
	tmpf, err := os.CreateTemp(s.tmpDir(), "ingest-*")
	if err != nil {
		return Entry{}, false, err
	}
	tmpName := tmpf.Name()
	keep := false
	defer func() {
		tmpf.Close()
		if !keep {
			os.Remove(tmpName)
		}
	}()

	// Stage every uploaded byte; the digest and size cover exactly what
	// lands, whatever the decoder later stops at (a counted binary header
	// ends the decode before trailing bytes).
	h := sha256.New()
	size, readErr, writeErr := spoolHashed(s.sinkWriter(faultfs.SinkCorpusObject, tmpf), h, r)
	if writeErr != nil {
		return Entry{}, false, fmt.Errorf("corpus: spooling ingest: %w", writeErr)
	}
	if readErr != nil {
		return Entry{}, false, fmt.Errorf("%w: reading upload: %w", ErrBadTrace, readErr)
	}
	if err := tmpf.Close(); err != nil {
		return Entry{}, false, err
	}
	digest := hex.EncodeToString(h.Sum(nil))

	// A re-upload never decodes. Declared as another format than the one
	// it is stored under, it must still answer for that format, so it
	// takes the decode like a new blob.
	s.mu.Lock()
	existing, held := s.entries[digest]
	s.mu.Unlock()
	if held && existing.Format == format {
		s.metrics.Load().IngestObserve(size, existing.Requests, false)
		return existing, false, nil
	}

	dec, _, err := trace.OpenFileDecoder(tmpName, format, int(s.parallel.Load()))
	if err != nil {
		return Entry{}, false, stagedDecodeErr(format, err)
	}
	defer dec.Close()
	sum, model, err := s.summarizeAndFit(dec, format)
	if err != nil {
		return Entry{}, false, stagedDecodeErr(format, err)
	}
	if sum.Requests == 0 {
		return Entry{}, false, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}

	entry := Entry{
		Digest:       digest,
		Format:       format,
		Size:         size,
		Tenant:       tenant,
		Name:         sum.Meta.Name,
		Workload:     sum.Meta.Workload,
		Set:          sum.Meta.Set,
		TsdevKnown:   sum.Meta.TsdevKnown,
		Requests:     sum.Requests,
		Duration:     sum.Duration(),
		TotalBytes:   sum.TotalBytes,
		ReadFraction: sum.ReadFraction(),
		SeqFraction:  sum.SeqFraction(),
		Model:        model,
		Ingested:     time.Now().UTC(),
	}

	// Check again under the lock that also covers the rename: two racing
	// first uploads of one blob both get here, and the loser dedups.
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.entries[digest]; ok {
		s.metrics.Load().IngestObserve(size, int64(sum.Requests), false)
		return existing, false, nil
	}
	if err := os.Rename(tmpName, s.blobPath(digest)); err != nil {
		return Entry{}, false, err
	}
	keep = true
	if err := writeJSONAtomic(s.tmpDir(), s.sidecarPath(digest), entry); err != nil {
		return Entry{}, false, err
	}
	s.entries[digest] = entry
	s.metrics.Load().IngestObserve(size, int64(sum.Requests), true)
	return entry, true, nil
}

// summarizeAndFit drains the staged upload once into its summary and,
// for a Tsdev-unknown trace in a format that needs no reorder window,
// into the inference model every default job on the blob would fit for
// itself: the classifier rides the summary's loop and sequentiality
// flags (infer.SummarizeAndClassify, tracestat's first pass). The fit
// can only add a model, never fail the ingest — a trace too sparse to
// fit, or a fit that is not finite (which the sidecar's JSON could not
// carry), lands without one and its jobs answer as they always did. On
// a decode error the decoder is closed.
func (s *Store) summarizeAndFit(dec trace.Decoder, format string) (trace.Summary, *infer.Model, error) {
	sum, cls, err := infer.SummarizeAndClassify(dec, func(m trace.Meta) *infer.StreamClassifier {
		if m.TsdevKnown || trace.NeedsSort(format) {
			return nil
		}
		if c, ok := s.fits.Get(); ok {
			return c
		}
		return infer.NewStreamClassifier()
	})
	if cls != nil {
		defer func() {
			cls.Reset()
			if cls.Bytes() <= fitScratchBound {
				s.fits.Put(cls)
			}
		}()
	}
	if err != nil || cls == nil {
		return sum, nil, err
	}
	start := time.Now()
	model, err := cls.Estimate(sum.Meta.Name)
	if err != nil || !model.Finite() {
		model = nil
	}
	s.metrics.Load().FitObserve(time.Since(start), model != nil)
	return sum, model, nil
}

// FittedModel returns a copy of the inference model ingest fitted to
// the blob with the given full digest, nil when the entry holds none
// (see Entry.Model). It implements the read half of engine.ResultCache
// that lets a job skip its fit pass.
func (s *Store) FittedModel(digest string) *infer.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.entries[digest].Model
	if m == nil {
		return nil
	}
	c := *m
	return &c
}

// IngestFile ingests the trace at path.
func (s *Store) IngestFile(path, format string) (Entry, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return Entry{}, false, err
	}
	defer f.Close()
	return s.Ingest(f, format)
}

// Entries returns the catalogue sorted by ingest time, then digest.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Ingested.Equal(out[j].Ingested) {
			return out[i].Ingested.Before(out[j].Ingested)
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// Resolve finds the entry for a full digest or a unique prefix.
func (s *Store) Resolve(prefix string) (Entry, error) {
	prefix = strings.ToLower(prefix)
	if !isHex(prefix) {
		return Entry{}, fmt.Errorf("corpus: %q is not a hex digest", prefix)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[prefix]; ok {
		return e, nil
	}
	var found []Entry
	for d, e := range s.entries {
		if strings.HasPrefix(d, prefix) {
			found = append(found, e)
		}
	}
	switch len(found) {
	case 0:
		return Entry{}, fmt.Errorf("corpus: no trace with digest %s", prefix)
	case 1:
		return found[0], nil
	default:
		return Entry{}, fmt.Errorf("corpus: digest prefix %s is ambiguous (%d matches)", prefix, len(found))
	}
}

// BlobPath returns the on-disk path of an ingested blob by its full
// digest.
func (s *Store) BlobPath(digest string) (string, error) {
	s.mu.Lock()
	_, ok := s.entries[digest]
	s.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("corpus: no trace with digest %s", digest)
	}
	return s.blobPath(digest), nil
}

// OpenBlob opens a blob for reading by digest or unique prefix.
func (s *Store) OpenBlob(prefix string) (io.ReadCloser, Entry, error) {
	e, err := s.Resolve(prefix)
	if err != nil {
		return nil, Entry{}, err
	}
	f, err := os.Open(s.blobPath(e.Digest))
	if err != nil {
		return nil, Entry{}, err
	}
	return f, e, nil
}

// Len returns the number of catalogued traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// GCStats reports what GC removed.
type GCStats struct {
	// TmpRemoved counts abandoned staging files.
	TmpRemoved int
	// ResultsRemoved counts cached results dropped because their input
	// digest is gone or their blob/sidecar pair was broken.
	ResultsRemoved int
	// ObjectsRemoved counts half-ingested objects (blob or sidecar
	// missing its partner).
	ObjectsRemoved int
}

// GC removes abandoned staging files, half-written object pairs, and
// cached results whose input trace is no longer in the corpus. Run it
// while no ingest is in flight against the same root (e.g. with the
// daemon stopped).
func (s *Store) GC() (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st GCStats

	tmps, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return st, err
	}
	for _, de := range tmps {
		if os.Remove(filepath.Join(s.tmpDir(), de.Name())) == nil {
			st.TmpRemoved++
		}
	}

	// Objects: drop blobs without sidecars and sidecars without blobs.
	objs, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return st, err
	}
	for _, de := range objs {
		name := de.Name()
		if digest, ok := strings.CutSuffix(name, ".json"); ok {
			if _, err := os.Stat(s.blobPath(digest)); err != nil {
				os.Remove(filepath.Join(s.objectsDir(), name))
				st.ObjectsRemoved++
			}
			continue
		}
		if _, err := os.Stat(s.sidecarPath(name)); err != nil {
			os.Remove(filepath.Join(s.objectsDir(), name))
			st.ObjectsRemoved++
		}
	}
	if err := s.rebuildLocked(); err != nil {
		return st, err
	}

	// Results: drop orphans (input gone) and broken pairs.
	results, err := os.ReadDir(s.resultsDir())
	if err != nil {
		return st, err
	}
	for _, de := range results {
		name := de.Name()
		key, isMeta := strings.CutSuffix(name, ".json")
		if !isMeta {
			if _, err := os.Stat(s.resultMetaPath(name)); err != nil {
				os.Remove(s.resultPath(name))
				st.ResultsRemoved++
			}
			continue
		}
		var meta ResultMeta
		drop := false
		if err := readJSON(s.resultMetaPath(key), &meta); err != nil {
			drop = true
		} else if _, err := os.Stat(s.resultPath(key)); err != nil {
			drop = true
		} else if _, ok := s.entries[meta.InputDigest]; !ok {
			drop = true
		}
		if drop {
			os.Remove(s.resultPath(key))
			os.Remove(s.resultMetaPath(key))
			st.ResultsRemoved++
		}
	}
	return st, nil
}
