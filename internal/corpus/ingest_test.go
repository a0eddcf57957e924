package corpus

// Coverage for the ingest copy: the upload is read into a ring of
// reused chunks, spooled by the calling goroutine and hashed by one
// hasher goroutine. Whatever shape the reader hands its bytes in, and
// wherever it fails, the digest is sha256 of exactly the uploaded
// bytes, a reader fault stays the client's with its cause reachable,
// and nothing is left behind: no staging file, no goroutine.

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

	"repro/internal/trace"
)

// paddedCSV returns a valid csv trace of exactly size bytes: the
// sample trace followed by comment and blank lines, which the decoder
// skips but the digest covers.
func paddedCSV(t *testing.T, size int) []byte {
	t.Helper()
	data := csvBytes(t, sampleTrace())
	if size < len(data) {
		t.Fatalf("size %d below the %d-byte sample", size, len(data))
	}
	line := append([]byte{'#'}, bytes.Repeat([]byte{'x'}, 62)...)
	line = append(line, '\n')
	for size-len(data) >= len(line) {
		data = append(data, line...)
	}
	for len(data) < size {
		data = append(data, '\n')
	}
	return data
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
// through readers that hand their bytes over in every shape.
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
		s := openStore(t)
		for _, size := range sizes {
			data := paddedCSV(t, size)
			label := fmt.Sprintf("%s/%d", name, size)
			e, created, err := s.Ingest(wrap(bytes.NewReader(data)), "csv")
			checkLanded(t, s, label, data, e, err)
			if !created {
				t.Fatalf("%s: not created", label)
			}
			// The dedup path digests through the same copy.
			e, created, err = s.Ingest(wrap(bytes.NewReader(data)), "csv")
			checkLanded(t, s, label+" dedup", data, e, err)
			if created {
				t.Fatalf("%s: re-upload created a second entry", label)
			}
		}
		if names := tmpEntries(t, s); len(names) != 0 {
			t.Fatalf("%s: staging leftovers: %v", name, names)
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
// each side of a chunk boundary, at the first byte and at the last:
// the error is the client's (ErrBadTrace) with the reader's own cause
// reachable, nothing is staged or catalogued, and the hasher is gone.
// io.ErrUnexpectedEOF is what a cut-off upload body reports; every
// prefix here is a valid trace, so only the error keeps it out.
func TestIngestReadFaultOffsets(t *testing.T) {
	s := openStore(t)
	data := paddedCSV(t, 3*ingestChunk+17)
	base := runtime.NumGoroutine()
	for _, cause := range []error{errors.New("upload connection reset"), io.ErrUnexpectedEOF} {
		for _, off := range []int{0, ingestChunk - 1, ingestChunk, ingestChunk + 1, len(data) - 1} {
			r := io.MultiReader(bytes.NewReader(data[:off]), iotest.ErrReader(cause))
			_, _, err := s.Ingest(r, "csv")
			if !errors.Is(err, ErrBadTrace) || !errors.Is(err, cause) {
				t.Fatalf("%v at %d: error %v, want ErrBadTrace wrapping the reader's cause", cause, off, err)
			}
			if names := tmpEntries(t, s); len(names) != 0 {
				t.Fatalf("%v at %d: staging leftovers: %v", cause, off, names)
			}
			if s.Len() != 0 {
				t.Fatalf("%v at %d: catalogue holds %d entries", cause, off, s.Len())
			}
			waitGoroutines(t, base)
		}
	}
}

// TestIngestDedupAllocs pins the reused ring: a dedup ingest of a
// 200k-request blob (6.8 MB, ~52 chunks) allocates a small constant
// number of objects, none of them per chunk, and on average well under
// the ring's bytes, so the ring comes from the pool, not the heap.
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
	dedup := func() {
		r.Reset(data)
		if _, created, err := s.Ingest(r, "bin"); err != nil || created {
			t.Fatalf("dedup ingest: created=%v err=%v", created, err)
		}
	}
	// The staging file, the digest, the ring's channels and the hasher
	// goroutine, plus the entry lookup.
	const maxAllocs = 40
	if allocs := testing.AllocsPerRun(10, dedup); allocs > maxAllocs {
		t.Fatalf("dedup ingest allocates %.0f objects, want at most %d", allocs, maxAllocs)
	}
	// A fresh ring is ingestRing chunks. A pooled one costs ~1 KB, but
	// under the race detector sync.Pool drops a quarter of what is put
	// back, about one chunk a run, so the bound is half the ring.
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		dedup()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= ingestRing/2*ingestChunk {
		t.Fatalf("dedup ingest allocates %d bytes, want under %d: the ring is not reused", perRun, ingestRing/2*ingestChunk)
	}
}

// BenchmarkIngest times one upload of a 200k-request bin blob: as a
// new blob (copy, digest, decode for the summary, rename, sidecar)
// and as a re-upload of a held one (copy and digest only).
func BenchmarkIngest(b *testing.B) {
	data := binBlob(b, 200_000)
	b.Run("new", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			root := filepath.Join(dir, fmt.Sprint(i))
			s, err := Open(root)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, created, err := s.Ingest(bytes.NewReader(data), "bin"); err != nil || !created {
				b.Fatalf("created=%v err=%v", created, err)
			}
			b.StopTimer()
			os.RemoveAll(root)
			b.StartTimer()
		}
	})
	b.Run("dedup", func(b *testing.B) {
		s, err := Open(filepath.Join(b.TempDir(), "data"))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Ingest(bytes.NewReader(data), "bin"); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, created, err := s.Ingest(bytes.NewReader(data), "bin"); err != nil || created {
				b.Fatalf("created=%v err=%v", created, err)
			}
		}
	})
}
