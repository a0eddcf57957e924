package corpus

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// arrivalOrder decodes the file at path as format the way every job
// reads it (trace.OpenFileDecoder) and returns its metadata and records.
func arrivalOrder(t *testing.T, path, format string) (trace.Meta, []trace.Request) {
	t.Helper()
	dec, _, err := trace.OpenFileDecoder(path, format)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	var out []trace.Request
	if err := trace.ForEachBatch(dec, func(run []trace.Request) error {
		out = append(out, run...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return dec.Meta(), out
}

// TestRenderingAtIngest: a text upload lands with a bin rendering that
// holds exactly the records a job decodes from the blob, arrival order
// and metadata included, at exactly trace.BinSize of its entry; JobInput
// offers it for the entry's format only. The near-sorted msrc and spc
// fixtures take the reorder window; the big csv, with GOMAXPROCS 2,
// takes the read-ahead decoder. No staging file is left behind, and a
// bin upload is not rendered.
func TestRenderingAtIngest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	fixtures := filepath.Join("..", "..", "cmd", "testdata")
	big := filepath.Join(t.TempDir(), "big.csv")
	if err := os.WriteFile(big, bigCSV(t), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, format string }{
		{filepath.Join(fixtures, "fixture.csv"), "csv"},
		{filepath.Join(fixtures, "fixture.msrc"), "msrc"},
		{filepath.Join(fixtures, "fixture.spc"), "spc"},
		{big, "csv"},
	} {
		s := openStore(t)
		e, _, err := s.IngestFile(tc.path, tc.format)
		if err != nil {
			t.Fatal(err)
		}
		path, format, ok := s.JobInput(e.Digest, tc.format)
		if !ok || format != "bin" || path != s.renderPath(e.Digest) {
			t.Fatalf("%s: JobInput = %q %q %v", tc.path, path, format, ok)
		}
		wantMeta, want := arrivalOrder(t, tc.path, tc.format)
		gotMeta, got := arrivalOrder(t, path, "bin")
		if gotMeta != wantMeta || !slices.Equal(got, want) {
			t.Fatalf("%s: rendering holds %d records under %+v, the blob decodes to %d under %+v",
				tc.path, len(got), gotMeta, len(want), wantMeta)
		}
		st, err := os.Stat(path)
		if err != nil || st.Size() != trace.BinSize(wantMeta, e.Requests) {
			t.Fatalf("%s: rendering size %v (%v), want %d", tc.path, st.Size(), err, trace.BinSize(wantMeta, e.Requests))
		}
		if _, _, ok := s.JobInput(e.Digest, "bin"); ok {
			t.Fatalf("%s: rendering offered for a bin read", tc.path)
		}
		if names := tmpEntries(t, s); len(names) != 0 {
			t.Fatalf("%s: staging leftovers: %v", tc.path, names)
		}
	}

	s := openStore(t)
	e, _, err := s.IngestFile(filepath.Join(fixtures, "fixture.bin"), "bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.renderPath(e.Digest)); !os.IsNotExist(err) {
		t.Fatalf("bin upload rendered: %v", err)
	}
	if _, _, ok := s.JobInput(e.Digest, "bin"); ok {
		t.Fatal("JobInput offered a file for a bin upload")
	}
}

// TestRenderingSkipped: what cannot be rendered lands without a
// rendering, and the ingest itself answers as it always did — a
// metadata string the bin header cannot hold, and a re-upload (which
// never decodes).
func TestRenderingSkipped(t *testing.T) {
	s := openStore(t)
	tr := sampleTrace()
	tr.Name = strings.Repeat("n", 1<<16)
	e, created, err := s.Ingest(bytes.NewReader(csvBytes(t, tr)), "csv")
	if err != nil || !created || e.Name != tr.Name {
		t.Fatalf("ingest of a long-named trace: created=%v name %d bytes err=%v", created, len(e.Name), err)
	}
	if _, err := os.Stat(s.renderPath(e.Digest)); !os.IsNotExist(err) {
		t.Fatalf("a rendering whose header cannot hold the name landed: %v", err)
	}
	if _, _, ok := s.JobInput(e.Digest, "csv"); ok {
		t.Fatal("JobInput offered a rendering that does not exist")
	}
	if names := tmpEntries(t, s); len(names) != 0 {
		t.Fatalf("staging leftovers: %v", names)
	}

	data := csvBytes(t, sampleTrace())
	first, _, err := s.Ingest(bytes.NewReader(data), "csv")
	if err != nil {
		t.Fatal(err)
	}
	st0, err := os.Stat(s.renderPath(first.Digest))
	if err != nil {
		t.Fatal(err)
	}
	if _, created, err := s.Ingest(bytes.NewReader(data), "csv"); err != nil || created {
		t.Fatalf("re-upload: created=%v err=%v", created, err)
	}
	if st1, err := os.Stat(s.renderPath(first.Digest)); err != nil || !os.SameFile(st0, st1) {
		t.Fatalf("a re-upload replaced the rendering: %v", err)
	}
	if names := tmpEntries(t, s); len(names) != 0 {
		t.Fatalf("staging leftovers: %v", names)
	}
}

// TestGCRemovesOrphanRenderings: GC drops a rendering whose blob has no
// entry — a stray file, or one whose sidecar is gone — and keeps a live
// one.
func TestGCRemovesOrphanRenderings(t *testing.T) {
	s := openStore(t)
	live, _, err := s.Ingest(bytes.NewReader(csvBytes(t, sampleTrace())), "csv")
	if err != nil {
		t.Fatal(err)
	}
	tr := sampleTrace()
	tr.Name = "corpus-orphan"
	gone, _, err := s.Ingest(bytes.NewReader(csvBytes(t, tr)), "csv")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.sidecarPath(gone.Digest)); err != nil {
		t.Fatal(err)
	}
	stray := strings.Repeat("ab", 32)
	if err := os.WriteFile(s.renderPath(stray), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.RendersRemoved != 2 || st.ObjectsRemoved != 1 {
		t.Fatalf("gc stats %+v, want 2 renderings and 1 object removed", st)
	}
	for _, d := range []string{gone.Digest, stray} {
		if _, err := os.Stat(s.renderPath(d)); !os.IsNotExist(err) {
			t.Fatalf("orphan rendering %s kept: %v", d[:8], err)
		}
	}
	if _, _, ok := s.JobInput(live.Digest, "csv"); !ok {
		t.Fatal("gc removed a live rendering")
	}
}
