package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/maphash"
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
	"repro/internal/trace"
)

// Store is a content-addressed trace corpus rooted at one directory.
// It is safe for concurrent use within a process; concurrent processes
// sharing a root are safe for ingest and result writes (atomic
// renames) but each maintains its own in-memory catalogue.
type Store struct {
	root string

	// metrics is the optional instrumentation hook (SetMetrics).
	metrics atomic.Pointer[obs.CorpusMetrics]

	// faults is the optional write-fault injector (SetFaultInjector):
	// resilience tests arm it to prove disk faults surface as storage
	// errors with the store left consistent.
	faults atomic.Pointer[faultfs.Injector]

	mu      sync.Mutex
	entries map[string]Entry // guarded by mu
	// heads maps an upload's format and the maphash of its first chunk
	// to the digest of a blob that began with that chunk: one this
	// process landed, or answered a re-upload with by digest. It is
	// never persisted, and the entry it names may since be gone or
	// another format, so every use re-checks the catalogue (matchStored).
	heads map[headKey]string // guarded by mu
	seed  maphash.Seed
}

// headKey names an upload by its format and its first chunk.
type headKey struct {
	format string
	sum    uint64
}

// SetParallel does nothing; n is ignored. Ingest decodes a staged
// upload as trace.OpenFileDecoder decides, from the file and the
// process. It stays until the benchmark stops calling it.
func (s *Store) SetParallel(n int) {}

// SetMetrics attaches (or, with nil, detaches) the store's
// instrumentation hook: ingest volume, digest dedup and ingest-time
// model fits. Safe to call concurrently with store operations.
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
	s := &Store{root: root, entries: make(map[string]Entry), heads: make(map[headKey]string), seed: maphash.MakeSeed()}
	for _, d := range []string{root, s.objectsDir(), s.rendersDir(), s.resultsDir(), s.tmpDir()} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return nil, err
		}
	}
	if err := s.rebuildLocked(); err != nil {
		return nil, err
	}
	if err := s.rederiveLocked(); err != nil {
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

// rederiveLocked re-derives, once, every csv or spc entry whose sidecar
// lacks ExactTime: the float reader before scanFixed read some of its
// times 1 ns short, so its summary, model, rendering and results may
// differ from a fresh ingest's. Its results go first, then derive runs
// over the blob and the entry lands again (landLocked): a crash part
// way leaves it to the next Open. A blob the exact reader rejects (a
// time outside time.Duration) keeps its figures and loses its
// rendering, so its jobs read the blob and fail there.
//
//tracelint:holds mu
func (s *Store) rederiveLocked() error {
	stale := make(map[string]bool)
	for digest, e := range s.entries {
		if !e.ExactTime && (e.Format == "csv" || e.Format == "spc") {
			stale[digest] = true
		}
	}
	if len(stale) == 0 {
		return nil
	}
	if _, err := s.dropResultsLocked(func(digest string) bool { return stale[digest] }); err != nil {
		return err
	}
	for digest := range stale {
		e := s.entries[digest]
		staged, err := s.derive(s.blobPath(digest), &e)
		if err != nil && !errors.Is(err, ErrBadTrace) {
			return err
		}
		e.ExactTime = true
		if err := s.landLocked(e, staged); err != nil {
			return err
		}
	}
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
// Comparing a re-upload with a stored blob holds three chunks; one
// that stops matching after its first chunk keeps one of them, the
// chunk that differed, beside the ring until it is staged: five chunks
// (640 KiB).
const (
	ingestChunk = 128 << 10
	ingestRing  = 4
)

type ingestBuf = [ingestChunk]byte

var ingestBufs = sync.Pool{New: func() any { return new(ingestBuf) }}

// spoolHashed copies head[:n], then src, to dst and digests the same
// bytes into h, the hash beside the write rather than in front of it:
// the calling goroutine fills each chunk from src and writes it to dst
// while one hasher goroutine digests it. head, a chunk of the pool the
// caller already filled, is the ring's first buffer, and spoolHashed
// returns it to the pool with the rest. The hasher is joined before
// spoolHashed returns on every path, so h is complete (or abandoned)
// and the ring is back in the pool. The failing side is reported apart:
// readErr is src's own error, chain intact (a client fault); writeErr
// is dst's (a storage fault).
func spoolHashed(dst io.Writer, h hash.Hash, head *ingestBuf, n int, src io.Reader) (total int64, readErr, writeErr error) {
	// Each channel can hold the whole ring, so no send ever blocks: the
	// reader waits only on free, for the hasher to give a chunk back.
	free := make(chan *ingestBuf, ingestRing)
	for range ingestRing - 1 {
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
	buf, m, err := head, n, error(nil)
	for {
		if m == 0 {
			free <- buf
		} else {
			full <- buf[:m]
			w, werr := dst.Write(buf[:m])
			total += int64(w)
			if werr == nil && w < m {
				werr = io.ErrShortWrite
			}
			if werr != nil {
				return total, nil, werr
			}
		}
		if err == io.EOF {
			return total, nil, nil
		}
		if err != nil {
			return total, err, nil
		}
		buf = <-free
		m, err = fill(src, buf[:])
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

// decodeErr classifies a failure to decode a staged upload or a blob:
// an *fs.PathError is the store's own disk failing to open or read the
// file (a storage fault); anything else is the trace's.
func decodeErr(format string, err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return fmt.Errorf("corpus: reading a trace to decode: %w", err)
	}
	return fmt.Errorf("%w: as %s: %w", ErrBadTrace, format, err)
}

// Ingest adds one trace to the store. The upload is staged to tmp/
// while its SHA-256 digest is computed; a blob the store already holds
// under the same format returns its entry there (dedup by digest: the
// existing entry wins, the upload is discarded, nothing is decoded, and
// the returned bool is false). A new blob is decoded from the staged
// file like any job input for its metadata summary, then lands
// atomically. format "" or "auto" selects content sniffing over the
// upload's first chunk, before anything is staged.
//
// A re-upload of a blob this process has landed or answered before is
// not staged or hashed at all: its first chunk names the blob, and it
// is compared with it byte for byte (matchStored). Equal bytes have an
// equal digest, so the answer is the one the hash would give.
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
func (s *Store) IngestAs(r io.Reader, format, tenant string) (e Entry, created bool, err error) {
	head := ingestBufs.Get().(*ingestBuf)
	n, err := fill(r, head[:])
	// A format-less upload is sniffed from its first chunk, unless the
	// upload failed to read before the sniff window was whole.
	if err == nil || err == io.EOF || n >= trace.SniffLen {
		var serr error
		if format, serr = trace.ResolveFormat(format, head[:n]); serr != nil {
			ingestBufs.Put(head)
			return Entry{}, false, fmt.Errorf("%w: %w", ErrBadTrace, serr)
		}
	}
	if err == io.EOF {
		r = drained{}
	} else if err != nil {
		ingestBufs.Put(head)
		return Entry{}, false, fmt.Errorf("%w: reading upload: %w", ErrBadTrace, err)
	}
	key := headKey{format, maphash.Bytes(s.seed, head[:n])}
	existing, rest, release, err := s.matchStored(key, head[:n], r)
	if err != nil || rest == nil {
		ingestBufs.Put(head)
		if err != nil {
			return Entry{}, false, fmt.Errorf("%w: reading upload: %w", ErrBadTrace, err)
		}
		m := s.metrics.Load()
		m.IngestObserve(existing.Size, 0, false)
		m.DedupCompared()
		return existing, false, nil
	}
	// Whatever entry of this format answers the upload from here on, by
	// digest or by landing it, is indexed under its first chunk.
	defer func() {
		if err == nil && e.Format == format {
			s.mu.Lock()
			s.heads[key] = e.Digest
			s.mu.Unlock()
		}
	}()

	tmpf, err := os.CreateTemp(s.tmpDir(), "ingest-*")
	if err != nil {
		ingestBufs.Put(head)
		release()
		return Entry{}, false, err
	}
	tmpName := tmpf.Name()
	keep, staged := false, ""
	defer func() {
		tmpf.Close()
		if !keep {
			os.Remove(tmpName)
			os.Remove(staged)
		}
	}()

	// Stage every uploaded byte; the digest and size cover exactly what
	// lands, whatever the decoder later stops at (a counted binary header
	// ends the decode before trailing bytes).
	h := sha256.New()
	size, readErr, writeErr := spoolHashed(s.sinkWriter(faultfs.SinkCorpusObject, tmpf), h, head, n, rest)
	release()
	if writeErr != nil {
		return Entry{}, false, fmt.Errorf("corpus: spooling ingest: %w", writeErr)
	}
	var re *replayError
	if errors.As(readErr, &re) {
		return Entry{}, false, re
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
	held = held && existing.Format == format
	s.mu.Unlock()
	if held {
		s.metrics.Load().IngestObserve(size, 0, false)
		return existing, false, nil
	}

	entry := Entry{Digest: digest, Format: format, Size: size, Tenant: tenant}
	if staged, err = s.derive(tmpName, &entry); err != nil {
		return Entry{}, false, err
	}
	entry.Ingested = time.Now().UTC()

	// Check again under the lock that also covers the rename: two racing
	// first uploads of one blob both get here, and the loser dedups.
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.entries[digest]; ok {
		s.metrics.Load().IngestObserve(size, entry.Requests, false)
		return existing, false, nil
	}
	if err := os.Rename(tmpName, s.blobPath(digest)); err != nil {
		return Entry{}, false, err
	}
	keep = true
	if err := s.landLocked(entry, staged); err != nil {
		return Entry{}, false, err
	}
	s.metrics.Load().IngestObserve(size, entry.Requests, true)
	return entry, true, nil
}

// matchStored compares an upload with the blob the index names for
// its first chunk, head, reading r (the upload after head) one chunk at
// a time against the blob's bytes at the same offset. On a
// byte-identical re-upload of a catalogued entry of the key's format,
// rest is nil and e is that entry: the whole upload has been read and
// nothing needs staging. Otherwise rest yields the upload after head,
// in order: the part that matched, replayed from the blob, then the
// chunk that differed, then what r has not yet given. release frees
// what rest reads from once rest is drained; it is never nil when rest
// is not. err is r's own failure, nothing the blob does: a blob that is
// gone or fails to read just ends the comparison.
func (s *Store) matchStored(key headKey, head []byte, r io.Reader) (e Entry, rest io.Reader, release func(), err error) {
	s.mu.Lock()
	e, held := s.entries[s.heads[key]]
	s.mu.Unlock()
	if !held || e.Format != key.format {
		return Entry{}, r, func() {}, nil
	}
	blob, err := os.Open(s.blobPath(e.Digest))
	if err != nil {
		return Entry{}, r, func() {}, nil
	}
	// stored is read only by the comparison; up may hold the chunk that
	// differed, which rest still has to yield.
	stored := ingestBufs.Get().(*ingestBuf)
	defer ingestBufs.Put(stored)
	up := ingestBufs.Get().(*ingestBuf)
	release = func() {
		blob.Close()
		ingestBufs.Put(up)
	}
	cur, pos, eof := head, int64(0), false
	for {
		if k, _ := blob.ReadAt(stored[:len(cur)], pos); k < len(cur) || !bytes.Equal(stored[:len(cur)], cur) {
			break
		}
		pos += int64(len(cur))
		if eof {
			cur = nil
			if pos != e.Size {
				break
			}
			s.mu.Lock()
			_, held = s.entries[e.Digest]
			s.mu.Unlock()
			if !held {
				break
			}
			release()
			return e, nil, nil, nil
		}
		m, err := fill(r, up[:])
		if err != nil && err != io.EOF {
			release()
			return Entry{}, nil, nil, err
		}
		cur, eof = up[:m], err == io.EOF
	}
	if pos == 0 {
		release()
		return Entry{}, r, func() {}, nil
	}
	matched := pos - int64(len(head))
	rest = io.MultiReader(&replay{io.NewSectionReader(blob, int64(len(head)), matched), matched}, bytes.NewReader(cur))
	if !eof {
		rest = io.MultiReader(rest, r)
	}
	return Entry{}, rest, release, nil
}

// replay reads back the part of a stored blob an upload matched, ahead
// of the rest of the upload in its spool. Failing to read all of it
// again, short or with an error, is the store's disk, not the upload,
// so it is marked apart from the upload's own read errors.
type replay struct {
	r    io.Reader
	left int64 // bytes of r not yet read
}

func (p *replay) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.left -= int64(n)
	if err == io.EOF && p.left > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil && err != io.EOF {
		err = &replayError{err}
	}
	return n, err
}

// replayError is a stored blob failing to read back (replay).
type replayError struct{ err error }

func (e *replayError) Error() string { return "corpus: re-reading a stored blob: " + e.err.Error() }
func (e *replayError) Unwrap() error { return e.err }

// drained is an upload read to its end.
type drained struct{}

func (drained) Read([]byte) (int, error) { return 0, io.EOF }

// derive is the ingest pass: it decodes the blob at path as e.Format
// once, in arrival order (trace.OpenFileDecoder, the order every job
// reads), into e's metadata, summary and ExactTime and, for a
// Tsdev-unknown trace, the model every default job on the blob would
// fit for itself (infer.SummarizeAndClassify, tracestat's first pass).
// A fit too sparse or not finite (the sidecar's JSON could not carry
// it) leaves no model, never a failure. A text blob is rendered as bin
// in the same pass into staged, a tmp/ file ("" without one) that the
// caller lands (landLocked) or removes. A trace that fails to decode or
// holds no request is ErrBadTrace; the store's own disk failing to
// read it is not.
func (s *Store) derive(path string, e *Entry) (staged string, err error) {
	dec, _, err := trace.OpenFileDecoder(path, e.Format)
	if err != nil {
		return "", decodeErr(e.Format, err)
	}
	defer dec.Close()
	src, rend := trace.Decoder(dec), (*renderer)(nil)
	if e.Format != "bin" {
		if rend, err = s.newRenderer(dec); err == nil {
			src = rend
		}
	}
	sum, cls, err := infer.SummarizeAndClassify(src, func(m trace.Meta) bool { return !m.TsdevKnown })
	if rend != nil {
		staged = rend.finish()
	}
	if err != nil || sum.Requests == 0 {
		os.Remove(staged)
		if err != nil {
			return "", decodeErr(e.Format, err)
		}
		return "", fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	e.Model = nil
	if cls != nil {
		start := time.Now()
		if m, err := cls.Estimate(sum.Meta.Name); err == nil && m.Finite() {
			e.Model = m
		}
		s.metrics.Load().FitObserve(time.Since(start), e.Model != nil)
	}
	e.Name, e.Workload, e.Set, e.TsdevKnown = sum.Meta.Name, sum.Meta.Workload, sum.Meta.Set, sum.Meta.TsdevKnown
	e.Requests, e.Duration, e.TotalBytes = sum.Requests, sum.Duration(), sum.TotalBytes
	e.ReadFraction, e.SeqFraction, e.ExactTime = sum.ReadFraction(), sum.SeqFraction(), true
	return staged, nil
}

// landLocked lands e's staged rendering (derive), then its sidecar, the
// commit point, so a text blob is never catalogued ahead of its
// rendering. A rendering an earlier pass left is replaced, or removed
// when this one has none: no rendering outlives the pass that wrote it.
//
//tracelint:holds mu
func (s *Store) landLocked(e Entry, staged string) error {
	if staged == "" || os.Rename(staged, s.renderPath(e.Digest)) != nil {
		os.Remove(s.renderPath(e.Digest))
	}
	if err := writeJSONAtomic(s.tmpDir(), s.sidecarPath(e.Digest), e); err != nil {
		return err
	}
	s.entries[e.Digest] = e
	return nil
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

// TenantBytes returns the blob bytes of the catalogued entries whose
// Tenant is tenant: what a server charges against that tenant's quota.
func (s *Store) TenantBytes(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.entries {
		if e.Tenant == tenant {
			n += e.Size
		}
	}
	return n
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
	// RendersRemoved counts renderings whose blob has no entry.
	RendersRemoved int
}

// GC removes abandoned staging files, half-written object pairs,
// renderings and cached results whose input trace is no longer in the
// corpus. Run it while no ingest is in flight against the same root
// (e.g. with the daemon stopped).
func (s *Store) GC() (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st GCStats
	var err error
	if st.TmpRemoved, err = sweep(s.tmpDir(), func(string) bool { return true }); err != nil {
		return st, err
	}
	// Objects: drop blobs without sidecars and sidecars without blobs.
	if st.ObjectsRemoved, err = sweep(s.objectsDir(), unpaired(s.objectsDir())); err != nil {
		return st, err
	}
	if err := s.rebuildLocked(); err != nil {
		return st, err
	}
	gone := func(digest string) bool { _, ok := s.entries[digest]; return !ok }
	if st.RendersRemoved, err = sweep(s.rendersDir(), gone); err != nil {
		return st, err
	}
	// Results: drop broken pairs, then orphans (input gone).
	if st.ResultsRemoved, err = sweep(s.resultsDir(), unpaired(s.resultsDir())); err != nil {
		return st, err
	}
	n, err := s.dropResultsLocked(gone)
	st.ResultsRemoved += n
	return st, err
}

// sweep removes every file of dir whose name drop reports, and counts
// what it removed.
func sweep(dir string, drop func(name string) bool) (int, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range names {
		if drop(de.Name()) && os.Remove(filepath.Join(dir, de.Name())) == nil {
			n++
		}
	}
	return n, nil
}

// unpaired reports, for a directory of <name> and <name>.json pairs, a
// file whose partner is missing.
func unpaired(dir string) func(name string) bool {
	return func(name string) bool {
		partner, isJSON := strings.CutSuffix(name, ".json")
		if !isJSON {
			partner = name + ".json"
		}
		_, err := os.Stat(filepath.Join(dir, partner))
		return err != nil
	}
}
