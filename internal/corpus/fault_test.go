package corpus

// Fault-injection coverage for the store's durable write paths: an
// ENOSPC/EIO from the disk must come back as a storage error (never
// ErrBadTrace, which servers map to a client 4xx) and must leave the
// store consistent — no catalogued entry, staging leftovers that GC
// removes, and a clean retry once the fault clears.

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
)

// tmpEntries lists the store's staging directory.
func tmpEntries(t *testing.T, s *Store) []string {
	t.Helper()
	des, err := os.ReadDir(s.tmpDir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// The fault fires in the first spooled chunk, and past it: in the
// second, while the hasher still holds chunks of the upload. Once the
// blob has landed, a re-upload of it stages nothing for the fault to
// hit.
func TestIngestSpoolFaultIsStorageError(t *testing.T) {
	for _, c := range []struct {
		data []byte
		at   int64
	}{
		{csvBytes(t, sampleTrace()), 16},
		{paddedCSV(t, 3*ingestChunk), ingestChunk + 16},
	} {
		s := openStore(t)
		fi := faultfs.New()
		s.SetFaultInjector(fi)
		data := c.data

		fi.Fail(faultfs.SinkCorpusObject, c.at, syscall.ENOSPC)
		_, _, err := s.Ingest(bytes.NewReader(data), "csv")
		if err == nil {
			t.Fatalf("at %d: ingest succeeded under an ENOSPC spool fault", c.at)
		}
		if errors.Is(err, ErrBadTrace) {
			t.Fatalf("at %d: spool fault classified as a bad trace (client fault): %v", c.at, err)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("at %d: ENOSPC lost from the chain: %v", c.at, err)
		}
		if fi.Hits(faultfs.SinkCorpusObject) == 0 {
			t.Fatalf("at %d: fault rule never fired", c.at)
		}
		if s.Len() != 0 {
			t.Fatalf("at %d: catalogue holds %d entries after a failed ingest", c.at, s.Len())
		}
		if names := tmpEntries(t, s); len(names) != 0 {
			t.Fatalf("at %d: staging leftovers after failed ingest: %v", c.at, names)
		}

		// Same bytes land cleanly once the disk recovers.
		fi.Clear(faultfs.SinkCorpusObject)
		if _, created, err := s.Ingest(bytes.NewReader(data), "csv"); err != nil || !created {
			t.Fatalf("at %d: retry after clearing the fault: created=%v err=%v", c.at, created, err)
		}

		// A byte-identical re-upload writes nothing, so the same fault
		// armed again never fires.
		fi.Fail(faultfs.SinkCorpusObject, 0, syscall.ENOSPC)
		hits := fi.Hits(faultfs.SinkCorpusObject)
		if _, created, err := s.Ingest(bytes.NewReader(data), "csv"); err != nil || created {
			t.Fatalf("at %d: re-upload under a spool fault: created=%v err=%v", c.at, created, err)
		}
		if fi.Hits(faultfs.SinkCorpusObject) != hits {
			t.Fatalf("at %d: the re-upload was staged", c.at)
		}
	}
}

// A store that reads text ahead hits the same classification: the fault
// fires while the upload is staged, before any decoder exists.
func TestIngestSpoolFaultParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := openStore(t)
	fi := faultfs.New()
	s.SetFaultInjector(fi)
	data := csvBytes(t, sampleTrace())

	fi.Fail(faultfs.SinkCorpusObject, 8, syscall.EIO)
	_, _, err := s.Ingest(bytes.NewReader(data), "csv")
	if err == nil || errors.Is(err, ErrBadTrace) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("parallel ingest under EIO: %v", err)
	}
	if names := tmpEntries(t, s); len(names) != 0 {
		t.Fatalf("staging leftovers: %v", names)
	}
}

// unstageAtEOF removes the store's staging files when the upload it
// wraps reaches EOF: whatever Ingest does after the staging copy finds
// its staged file gone, as if the disk under tmp/ had lost it.
type unstageAtEOF struct {
	r io.Reader
	s *Store
}

func (u *unstageAtEOF) Read(p []byte) (int, error) {
	n, err := u.r.Read(p)
	if err == io.EOF {
		des, _ := os.ReadDir(u.s.tmpDir())
		for _, de := range des {
			os.Remove(filepath.Join(u.s.tmpDir(), de.Name()))
		}
	}
	return n, err
}

// Losing the staged file between the copy and the decode is the
// store's disk failing, not a bad trace — even though the failure
// surfaces from the decoder's side.
func TestIngestStagedReadFaultIsStorageError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		s := openStore(t)
		_, _, err := s.Ingest(&unstageAtEOF{r: bytes.NewReader(bigCSV(t)), s: s}, "csv")
		var pe *fs.PathError
		if !errors.As(err, &pe) || errors.Is(err, ErrBadTrace) {
			t.Fatalf("GOMAXPROCS %d: lost staging file: err %v, want a storage *fs.PathError", procs, err)
		}
		if s.Len() != 0 {
			t.Fatalf("GOMAXPROCS %d: catalogue holds %d entries after a failed ingest", procs, s.Len())
		}
	}
}

// truncateAtEOF truncates a stored blob when the upload it wraps
// reaches EOF: after the comparison has read the blob, before the
// matched part is read back from it into the spool.
type truncateAtEOF struct {
	r    io.Reader
	blob string
}

func (u *truncateAtEOF) Read(p []byte) (int, error) {
	n, err := u.r.Read(p)
	if err == io.EOF {
		os.Truncate(u.blob, 0)
	}
	return n, err
}

// A stored blob that no longer reads back the part an upload matched
// is the store's disk failing, not a bad trace, and what it does read
// never lands as the upload.
func TestIngestReplayFaultIsStorageError(t *testing.T) {
	s := openStore(t)
	data := paddedCSV(t, 3*ingestChunk+100)
	e, _, err := s.Ingest(bytes.NewReader(data), "csv")
	if err != nil {
		t.Fatal(err)
	}
	upload := differAt(data, len(data)-1)
	_, _, err = s.Ingest(&truncateAtEOF{r: bytes.NewReader(upload), blob: s.blobPath(e.Digest)}, "csv")
	if err == nil || errors.Is(err, ErrBadTrace) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("replay from a truncated blob: err %v, want a storage error", err)
	}
	if s.Len() != 1 {
		t.Fatalf("catalogue holds %d entries, want the stored one", s.Len())
	}
	if names := tmpEntries(t, s); len(names) != 0 {
		t.Fatalf("staging leftovers: %v", names)
	}
}

// A short write models the torn spool a dying device leaves: part of
// the failing write lands, the error still surfaces, nothing is
// catalogued.
func TestIngestSpoolShortWrite(t *testing.T) {
	for _, c := range []struct {
		data []byte
		at   int64
	}{
		{csvBytes(t, sampleTrace()), 10},
		{paddedCSV(t, 3*ingestChunk), ingestChunk + 10},
	} {
		s := openStore(t)
		fi := faultfs.New()
		s.SetFaultInjector(fi)

		fi.FailShort(faultfs.SinkCorpusObject, c.at, syscall.ENOSPC)
		_, _, err := s.Ingest(bytes.NewReader(c.data), "csv")
		if err == nil || errors.Is(err, ErrBadTrace) || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("at %d: short-write ingest: %v", c.at, err)
		}
		if s.Len() != 0 {
			t.Fatalf("at %d: torn spool was catalogued", c.at)
		}
	}
}

func TestStoreResultFaultLeavesCacheConsistent(t *testing.T) {
	s := openStore(t)
	fi := faultfs.New()
	s.SetFaultInjector(fi)

	e, _, err := s.Ingest(bytes.NewReader(csvBytes(t, sampleTrace())), "csv")
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)

	fi.Fail(faultfs.SinkCorpusResult, 4, syscall.ENOSPC)
	_, err = s.StoreResult(key, e.Digest, nil, func(w io.Writer) error {
		_, werr := w.Write([]byte("reconstructed output bytes"))
		return werr
	})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("StoreResult under ENOSPC: %v", err)
	}
	if _, _, ok := s.LookupResult(key); ok {
		t.Fatal("failed result visible in the cache")
	}
	if names := tmpEntries(t, s); len(names) != 0 {
		t.Fatalf("staging leftovers after failed result fill: %v", names)
	}

	// GC on a store with (synthesized) leftovers stays clean, and the
	// fill succeeds after the fault clears.
	fi.Clear(faultfs.SinkCorpusResult)
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	p, err := s.StoreResult(key, e.Digest, nil, func(w io.Writer) error {
		_, werr := w.Write([]byte("reconstructed output bytes"))
		return werr
	})
	if err != nil {
		t.Fatalf("retry after clearing the fault: %v", err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("stored result missing: %v", err)
	}
}

func TestIngestAsRecordsTenant(t *testing.T) {
	s := openStore(t)
	data := csvBytes(t, sampleTrace())
	e, created, err := s.IngestAs(bytes.NewReader(data), "csv", "alice")
	if err != nil || !created {
		t.Fatalf("ingest: created=%v err=%v", created, err)
	}
	if e.Tenant != "alice" {
		t.Fatalf("tenant = %q", e.Tenant)
	}
	// Dedup: the first ingester keeps the attribution.
	e2, created, err := s.IngestAs(bytes.NewReader(data), "csv", "bob")
	if err != nil || created {
		t.Fatalf("dedup ingest: created=%v err=%v", created, err)
	}
	if e2.Tenant != "alice" {
		t.Fatalf("dedup tenant = %q, want the original ingester", e2.Tenant)
	}
	// Only the ingester is charged the blob's bytes.
	if a, b := s.TenantBytes("alice"), s.TenantBytes("bob"); a != e.Size || b != 0 {
		t.Fatalf("TenantBytes: alice %d, bob %d; want %d, 0", a, b, e.Size)
	}
	// The attribution survives a catalogue rebuild (it lives in the
	// sidecar, the source of truth).
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Resolve(e.Digest)
	if err != nil || got.Tenant != "alice" {
		t.Fatalf("after rebuild: tenant=%q err=%v", got.Tenant, err)
	}
}
