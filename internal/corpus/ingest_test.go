package corpus

// Coverage for the ingest copy: the upload is read into a ring of
// reused chunks, spooled by the calling goroutine and hashed by one
// hasher goroutine, unless its first chunk names a stored blob, which
// it is then compared with chunk by chunk. Whatever shape the reader
// hands its bytes in, wherever it fails and wherever it stops matching
// the stored blob, the digest is sha256 of exactly the uploaded bytes,
// a reader fault stays the client's with its cause reachable, and
// nothing is left behind: no staging file, no goroutine.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// paddedCSV returns a valid csv trace of exactly size bytes: the
// sample trace followed by comment and blank lines, which the decoder
// skips but the digest covers. Any one byte of the padding may turn
// into a space (differAt) and the trace still decodes: a comment line
// starts "##", so either '#' alone still opens it.
func paddedCSV(t *testing.T, size int) []byte {
	t.Helper()
	data := csvBytes(t, sampleTrace())
	if size < len(data) {
		t.Fatalf("size %d below the %d-byte sample", size, len(data))
	}
	line := append([]byte("##"), bytes.Repeat([]byte{'x'}, 61)...)
	line = append(line, '\n')
	for size-len(data) >= len(line) {
		data = append(data, line...)
	}
	for len(data) < size {
		data = append(data, '\n')
	}
	return data
}

// differAt returns a copy of a paddedCSV trace with the padding byte at
// off turned into a space: another valid trace of the same size.
func differAt(data []byte, off int) []byte {
	out := bytes.Clone(data)
	out[off] = ' '
	return out
}

// binBlob renders an n-request bin trace, the benchmark's blob shape.
func binBlob(t testing.TB, n int) []byte {
	t.Helper()
	tr := &trace.Trace{Name: "corpus-blob", Workload: "w", Set: "MSR", TsdevKnown: true}
	tr.Requests = make([]trace.Request, n)
	for i := range tr.Requests {
		tr.Requests[i] = trace.Request{
			Arrival: time.Duration(i) * 37 * time.Microsecond,
			Device:  uint32(i % 4),
			LBA:     uint64(i*8) % (1 << 30),
			Sectors: 8,
			Op:      trace.Op(i % 2),
			Latency: time.Duration(60+i%50) * time.Microsecond,
		}
	}
	return binBytes(t, tr)
}

// checkLanded checks an ingest of data returned the entry for exactly
// those bytes, and that the stored blob is them.
func checkLanded(t *testing.T, s *Store, name string, data []byte, e Entry, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sum := sha256.Sum256(data)
	if e.Digest != hex.EncodeToString(sum[:]) || e.Size != int64(len(data)) {
		t.Fatalf("%s: entry digest %s size %d, want sha256 %x size %d", name, e.Digest, e.Size, sum, len(data))
	}
	rc, _, err := s.OpenBlob(e.Digest)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("%s: stored blob differs from the upload (%d bytes, err %v)", name, len(got), err)
	}
}

// TestIngestChunkBoundaries ingests bodies ending on, just before and
// just after a chunk boundary, including past one trip round the ring,
// through readers that hand their bytes over in every shape. Each body
// is then re-uploaded as it is, which is compared with the stored blob
// and never staged, and as uploads that share its first chunk and then
// differ from it: on each side of every chunk boundary, in the last
// byte, by one byte less and by one byte more. Each of those lands as
// its own blob, through the stored prefix replayed ahead of the rest.
func TestIngestChunkBoundaries(t *testing.T) {
	readers := map[string]func(io.Reader) io.Reader{
		"plain":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
	}
	var sizes []int
	for _, k := range []int{1, 2, ingestRing, ingestRing + 1} {
		sizes = append(sizes, k*ingestChunk-1, k*ingestChunk, k*ingestChunk+1)
	}
	for name, wrap := range readers {
		for _, size := range sizes {
			// A store per size: a body one byte short of another size's
			// is that size's body.
			s := openStore(t)
			reg := obs.NewRegistry()
			s.SetMetrics(obs.NewCorpusMetrics(reg))
			data := paddedCSV(t, size)
			label := fmt.Sprintf("%s/%d", name, size)
			body, created, err := s.Ingest(wrap(bytes.NewReader(data)), "csv")
			checkLanded(t, s, label, data, body, err)
			if !created {
				t.Fatalf("%s: not created", label)
			}
			e, created, err := s.Ingest(wrap(bytes.NewReader(data)), "csv")
			checkLanded(t, s, label+" re-upload", data, e, err)
			if created {
				t.Fatalf("%s: re-upload created a second entry", label)
			}
			if metricOf(t, reg, "corpus_dedup_compared_total") != 1 {
				t.Fatalf("%s: the re-upload was not answered by comparison", label)
			}
			variants := map[string][]byte{
				"differ in the last byte": differAt(data, size-1),
				"one byte shorter":        data[:size-1],
				"one byte longer":         append(bytes.Clone(data), '\n'),
			}
			for k := ingestChunk; k <= size; k += ingestChunk {
				for _, off := range []int{k - 1, k, k + 1} {
					if off < size-1 {
						variants[fmt.Sprintf("differ at %d", off)] = differAt(data, off)
					}
				}
			}
			for what, v := range variants {
				e, created, err := s.Ingest(wrap(bytes.NewReader(v)), "csv")
				checkLanded(t, s, label+" "+what, v, e, err)
				if !created {
					t.Fatalf("%s %s: answered as a re-upload", label, what)
				}
				// The variant now holds the index. The body differs from
				// it, so its re-upload is hashed, answers by digest and
				// indexes the body again for the next variant.
				if e, created, err := s.Ingest(bytes.NewReader(data), "csv"); err != nil || created || e.Digest != body.Digest {
					t.Fatalf("%s after %s: re-upload created=%v err=%v", label, what, created, err)
				}
			}
			if names := tmpEntries(t, s); len(names) != 0 {
				t.Fatalf("%s: staging leftovers: %v", label, names)
			}
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// joined goroutine may still be on its way out when its joiner returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: the hasher was not joined", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestReadFaultOffsets fails the upload's reader at offsets on
// each side of a chunk boundary, at the first byte and at the last,
// on an empty store and, mid-compare, on one that holds the same bytes:
// the error is the client's (ErrBadTrace) with the reader's own cause
// reachable, nothing is staged or catalogued, and the hasher is gone.
// io.ErrUnexpectedEOF is what a cut-off upload body reports; every
// prefix here is a valid trace, so only the error keeps it out.
func TestIngestReadFaultOffsets(t *testing.T) {
	data := paddedCSV(t, 3*ingestChunk+17)
	for _, held := range []int{0, 1} {
		s := openStore(t)
		if held == 1 {
			if _, _, err := s.Ingest(bytes.NewReader(data), "csv"); err != nil {
				t.Fatal(err)
			}
		}
		base := runtime.NumGoroutine()
		for _, cause := range []error{errors.New("upload connection reset"), io.ErrUnexpectedEOF} {
			for _, off := range []int{0, ingestChunk - 1, ingestChunk, ingestChunk + 1, len(data) - 1} {
				r := io.MultiReader(bytes.NewReader(data[:off]), iotest.ErrReader(cause))
				_, _, err := s.Ingest(r, "csv")
				if !errors.Is(err, ErrBadTrace) || !errors.Is(err, cause) {
					t.Fatalf("held %d, %v at %d: error %v, want ErrBadTrace wrapping the reader's cause", held, cause, off, err)
				}
				if names := tmpEntries(t, s); len(names) != 0 {
					t.Fatalf("held %d, %v at %d: staging leftovers: %v", held, cause, off, names)
				}
				if s.Len() != held {
					t.Fatalf("held %d, %v at %d: catalogue holds %d entries", held, cause, off, s.Len())
				}
				waitGoroutines(t, base)
			}
		}
	}
}

// FuzzIngestReupload lands a stored csv blob of size bytes, then
// uploads it mutated: the byte at off set to val (when off falls
// inside), then cut bytes dropped (cut < 0) or appended as val (cut >
// 0), declared as csv or as bin. Whether the upload is compared with
// the blob to its end, stops matching in any chunk, or names no blob,
// the answer is the digest's: a byte-identical csv upload is the
// stored entry, created=false; any other that decodes lands as itself,
// created=true; one that does not is the client's ErrBadTrace; and
// nothing is left staged.
func FuzzIngestReupload(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, off uint32, val byte, cut int16, asBin bool) {
		sample := len(csvBytes(t, sampleTrace()))
		stored := paddedCSV(t, sample+int(size%(3*ingestChunk)))
		upload := bytes.Clone(stored)
		if int(off) < len(upload) {
			upload[off] = val
		}
		if cut < 0 {
			upload = upload[:max(0, len(upload)+int(cut))]
		} else {
			upload = append(upload, bytes.Repeat([]byte{val}, int(cut))...)
		}
		format := "csv"
		if asBin {
			format = "bin"
		}
		s := openStore(t)
		held, _, err := s.Ingest(bytes.NewReader(stored), "csv")
		if err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(upload, stored) && !asBin
		e, created, err := s.Ingest(bytes.NewReader(upload), format)
		switch {
		case err != nil:
			if same || !errors.Is(err, ErrBadTrace) {
				t.Fatalf("upload of %d bytes as %s: %v", len(upload), format, err)
			}
		case same:
			if created || e != held {
				t.Fatalf("byte-identical re-upload: created=%v entry %+v, want %+v", created, e, held)
			}
		default:
			if !created {
				t.Fatalf("a %d-byte upload differing from the stored blob answered created=false", len(upload))
			}
			checkLanded(t, s, "mutated upload", upload, e, nil)
		}
		if e.Digest != "" {
			if sum := sha256.Sum256(upload); e.Digest != hex.EncodeToString(sum[:]) {
				t.Fatalf("digest %s, want sha256 of the upload %x", e.Digest, sum)
			}
		}
		if names := tmpEntries(t, s); len(names) != 0 {
			t.Fatalf("staging leftovers: %v", names)
		}
	})
}

// TestIngestDedupAllocs pins the pooled chunks of a re-upload of a
// 200k-request blob (6.8 MB, ~52 chunks) on both dedup paths: compared
// with the stored blob through three chunks, staging and hashing
// nothing, and, with the index forgotten as in a later process, staged
// and hashed through the ring to a digest lookup. Each allocates a
// small constant number of objects, none of them per chunk, and on
// average well under the ring's bytes, so the chunks come from the
// pool, not the heap.
func TestIngestDedupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-request blob")
	}
	s := openStore(t)
	data := binBlob(t, 200_000)
	if _, _, err := s.Ingest(bytes.NewReader(data), "bin"); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	for _, tc := range []struct {
		name   string
		forget bool // clear the index first, so the digest answers
		// maxAllocs: compared, the opened blob and the closure that
		// closes it; by digest, the staging file, the digest, the ring's
		// channels and the hasher goroutine, plus the entry lookup.
		maxAllocs float64
		// format is the upload's declared format: "" is the daemon's
		// path for an upload without ?format=, sniffed from the first
		// chunk. maxBytes, when set, bounds what a re-upload allocates
		// outside a -race build.
		format   string
		maxBytes uint64
	}{
		{"compared", false, 12, "bin", 0},
		{"compared-sniffed", false, 12, "", 4 << 10},
		{"digest", true, 40, "bin", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dedup := func() {
				if tc.forget {
					s.mu.Lock()
					clear(s.heads)
					s.mu.Unlock()
				}
				r.Reset(data)
				if _, created, err := s.Ingest(r, tc.format); err != nil || created {
					t.Fatalf("dedup ingest: created=%v err=%v", created, err)
				}
			}
			if allocs := testing.AllocsPerRun(10, dedup); allocs > tc.maxAllocs {
				t.Fatalf("dedup ingest allocates %.0f objects, want at most %.0f", allocs, tc.maxAllocs)
			}
			// Fresh chunks would cost three (compared) or four (digest)
			// of them a run. Pooled ones cost ~1 KB, but under the race
			// detector sync.Pool drops a quarter of what is put back,
			// under one chunk a run, so the bound is half the ring.
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				dedup()
			}
			runtime.ReadMemStats(&after)
			perRun := (after.TotalAlloc - before.TotalAlloc) / runs
			if perRun >= ingestRing/2*ingestChunk {
				t.Fatalf("dedup ingest allocates %d bytes, want under %d: the chunks are not reused", perRun, ingestRing/2*ingestChunk)
			}
			if tc.maxBytes > 0 && !raceEnabled && perRun >= tc.maxBytes {
				t.Fatalf("dedup ingest allocates %d bytes, want under %d: the sniff reads the first chunk in place", perRun, tc.maxBytes)
			}
		})
	}
}

// BenchmarkIngest times one upload of a 200k-request bin blob: as a
// new blob (copy, digest, decode for the summary, rename, sidecar), as
// a re-upload of a held one (compared with the stored blob only), and
// as late-diff, the comparison's worst case: a same-size upload that
// differs from a held blob only in its last byte, so it is compared to
// the end, then replayed, digested and landed as a new blob.
func BenchmarkIngest(b *testing.B) {
	data := binBlob(b, 200_000)
	// fresh opens an empty store under dir, holding held when non-nil.
	fresh := func(b *testing.B, dir string, held []byte) *Store {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if held != nil {
			if _, _, err := s.Ingest(bytes.NewReader(held), "bin"); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	landEach := func(held, upload []byte) func(b *testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(upload)))
			b.ReportAllocs()
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				root := filepath.Join(dir, fmt.Sprint(i))
				s := fresh(b, root, held)
				b.StartTimer()
				if _, created, err := s.Ingest(bytes.NewReader(upload), "bin"); err != nil || !created {
					b.Fatalf("created=%v err=%v", created, err)
				}
				b.StopTimer()
				os.RemoveAll(root)
				b.StartTimer()
			}
		}
	}
	b.Run("new", landEach(nil, data))
	b.Run("dedup", func(b *testing.B) {
		s := fresh(b, filepath.Join(b.TempDir(), "data"), data)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, created, err := s.Ingest(bytes.NewReader(data), "bin"); err != nil || created {
				b.Fatalf("created=%v err=%v", created, err)
			}
		}
	})
	late := bytes.Clone(data)
	late[len(late)-1] ^= 1
	b.Run("late-diff", landEach(data, late))
}
