package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/trace"
)

// sampleTrace builds a small sorted Tsdev-known trace.
func sampleTrace() *trace.Trace {
	return &trace.Trace{
		Name: "corpus-sample", Workload: "w", Set: "FIU", TsdevKnown: true,
		Requests: []trace.Request{
			{Arrival: 0, Device: 0, LBA: 100, Sectors: 8, Op: trace.Read, Latency: 90 * time.Microsecond},
			{Arrival: 500 * time.Microsecond, Device: 0, LBA: 108, Sectors: 8, Op: trace.Read, Latency: 80 * time.Microsecond},
			{Arrival: time.Millisecond, Device: 1, LBA: 50, Sectors: 16, Op: trace.Write, Latency: 120 * time.Microsecond},
			{Arrival: 4 * time.Millisecond, Device: 0, LBA: 9999, Sectors: 32, Op: trace.Write, Latency: 200 * time.Microsecond},
		},
	}
}

func csvBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bigCSV renders a trace past trace.ReadAheadMinBytes, so its staged
// file takes the read-ahead decoder when GOMAXPROCS > 1.
func bigCSV(t *testing.T) []byte {
	t.Helper()
	big := &trace.Trace{Name: "corpus-big", Workload: "w", Set: "FIU", TsdevKnown: true}
	big.Requests = make([]trace.Request, 40_000)
	for i := range big.Requests {
		big.Requests[i] = trace.Request{
			Arrival: time.Duration(i) * 41 * time.Microsecond,
			Device:  uint32(i % 3),
			LBA:     uint64(i * 16),
			Sectors: 8,
			Op:      trace.Op(i % 2),
			Latency: time.Duration(80+i%40) * time.Microsecond,
		}
	}
	data := csvBytes(t, big)
	if len(data) < trace.ReadAheadMinBytes {
		t.Fatalf("big fixture only %d bytes; must exceed ReadAheadMinBytes", len(data))
	}
	return data
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIngestSummaryAndDigest checks the landed entry: digest over the
// exact bytes, and the summary matching the whole-trace accessors.
func TestIngestSummaryAndDigest(t *testing.T) {
	s := openStore(t)
	tr := sampleTrace()
	data := csvBytes(t, tr)

	e, created, err := s.Ingest(bytes.NewReader(data), "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first ingest not created")
	}
	sum := sha256.Sum256(data)
	if e.Digest != hex.EncodeToString(sum[:]) {
		t.Fatalf("digest: %s", e.Digest)
	}
	if e.Format != "csv" || e.Size != int64(len(data)) {
		t.Fatalf("format/size: %+v", e)
	}
	want := tr.Summary()
	if e.Requests != int64(tr.Len()) || e.Duration != tr.Duration() ||
		e.TotalBytes != want.TotalBytes || e.ReadFraction != want.ReadFraction() ||
		e.SeqFraction != want.SeqFraction() {
		t.Fatalf("summary: %+v", e)
	}
	if e.Name != tr.Name || e.Workload != tr.Workload || e.Set != tr.Set || !e.TsdevKnown {
		t.Fatalf("meta: %+v", e)
	}

	// Blob bytes are exactly what went in.
	rc, got, err := s.OpenBlob(e.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	stored, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, data) {
		t.Fatal("blob bytes diverge from upload")
	}
	if got.Digest != e.Digest {
		t.Fatalf("OpenBlob entry: %+v", got)
	}
}

// TestIngestDedup checks identical bytes land once: a re-upload under
// the stored format (declared or sniffed) returns the original entry
// from a comparison with the stored blob, without a decode; one
// declared as another format is decoded as that format and answers for
// it; and on a store reopened on the same root, or with the blob gone
// from disk, a re-upload still answers from its digest, undecoded.
func TestIngestDedup(t *testing.T) {
	s := openStore(t)
	reg := obs.NewRegistry()
	s.SetMetrics(obs.NewCorpusMetrics(reg))
	compared := func() float64 { return metricOf(t, reg, "corpus_dedup_compared_total") }
	// More than one chunk, so an upload that is staged hits EOF inside
	// the staging copy: unstageAtEOF then removes the staged file before
	// any decode could read it, and a decode would fail.
	data := paddedCSV(t, 2*ingestChunk+1)
	e1, created1, err := s.IngestAs(bytes.NewReader(data), "csv", "alice")
	if err != nil || !created1 {
		t.Fatalf("first: %v created=%v", err, created1)
	}
	for _, format := range []string{"", "auto", "csv"} {
		// The answer must come from the stored blob, undecoded.
		e2, created2, err := s.IngestAs(&unstageAtEOF{r: bytes.NewReader(data), s: s}, format, "bob")
		if err != nil {
			t.Fatalf("re-upload as %q: %v", format, err)
		}
		if created2 {
			t.Fatalf("re-upload as %q reported created", format)
		}
		if e2 != e1 {
			t.Fatalf("re-upload as %q: got %+v, want the original entry %+v", format, e2, e1)
		}
	}
	if got := compared(); got != 3 {
		t.Fatalf("%v re-uploads answered by comparison, want 3", got)
	}
	// Same bytes declared as a format they do not decode as: decoded as
	// that format, not compared, so rejected, and the stored entry stays
	// as it was.
	if _, _, err := s.IngestAs(bytes.NewReader(data), "bin", "bob"); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("re-upload as bin: err %v, want ErrBadTrace", err)
	}
	if got := compared(); got != 3 {
		t.Fatalf("a re-upload as another format was answered by comparison")
	}
	if got, err := s.Resolve(e1.Digest); err != nil || got != e1 {
		t.Fatalf("entry after conflicting re-upload: %+v, %v", got, err)
	}
	if s.Len() != 1 {
		t.Fatalf("catalogue size: %d", s.Len())
	}
	blobs, _ := os.ReadDir(filepath.Join(s.Root(), "objects"))
	if len(blobs) != 2 { // blob + sidecar
		t.Fatalf("objects dir has %d files", len(blobs))
	}
	if names := tmpEntries(t, s); len(names) != 0 {
		t.Fatalf("staging leftovers: %v", names)
	}

	// A later process on the same root has indexed nothing: its first
	// re-upload is staged and hashed, its digest answers without a
	// decode, and that answer indexes the blob for the next one.
	s2, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	s2.SetMetrics(obs.NewCorpusMetrics(reg2))
	for i, want := range []float64{0, 1} {
		e2, created2, err := s2.IngestAs(&unstageAtEOF{r: bytes.NewReader(data), s: s2}, "csv", "bob")
		if err != nil || created2 || e2.Digest != e1.Digest || e2.Tenant != "alice" {
			t.Fatalf("re-upload %d after reopening: created=%v err=%v entry %+v, want the original", i, created2, err, e2)
		}
		if got := metricOf(t, reg2, "corpus_dedup_compared_total"); got != want {
			t.Fatalf("re-upload %d after reopening: %v answered by comparison, want %v", i, got, want)
		}
	}

	// The indexed blob gone from disk: there is nothing to compare
	// with, so the upload is staged and hashed and its digest answers,
	// again without a decode.
	if err := os.Remove(s.blobPath(e1.Digest)); err != nil {
		t.Fatal(err)
	}
	e2, created2, err := s.IngestAs(&unstageAtEOF{r: bytes.NewReader(data), s: s}, "csv", "bob")
	if err != nil || created2 || e2 != e1 {
		t.Fatalf("re-upload without its blob: created=%v err=%v entry %+v, want the original", created2, err, e2)
	}
	if got := compared(); got != 3 {
		t.Fatalf("a re-upload without its blob was answered by comparison")
	}
	if names := tmpEntries(t, s); len(names) != 0 {
		t.Fatalf("staging leftovers: %v", names)
	}
}

// TestIngestConcurrentSameBlob races first uploads of one new blob,
// big enough for the read-ahead decoder: every racer decodes its own
// staging, the locked check before the rename lets exactly one land,
// and the rest answer with its entry.
func TestIngestConcurrentSameBlob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := openStore(t)
	data := bigCSV(t)
	base := runtime.NumGoroutine()

	const racers = 8
	var (
		wg      sync.WaitGroup
		created atomic.Int32
		entries [racers]Entry
		errs    [racers]error
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c bool
			entries[i], c, errs[i] = s.Ingest(bytes.NewReader(data), "csv")
			if c {
				created.Add(1)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
		if entries[i] != entries[0] {
			t.Fatalf("racer %d answered %+v, racer 0 %+v", i, entries[i], entries[0])
		}
	}
	if n := created.Load(); n != 1 {
		t.Fatalf("%d racers reported created, want exactly 1", n)
	}
	if s.Len() != 1 {
		t.Fatalf("catalogue size: %d", s.Len())
	}
	rc, _, err := s.OpenBlob(entries[0].Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if stored, err := io.ReadAll(rc); err != nil || !bytes.Equal(stored, data) {
		t.Fatalf("stored blob diverges from the upload (err %v)", err)
	}
	if names := tmpEntries(t, s); len(names) != 0 {
		t.Fatalf("staging leftovers: %v", names)
	}
	// Decode goroutines exit after their final unwind; give them a moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
		}
	}
}

// TestIngestAutoDetect sniffs bin and msrc uploads without a hint.
func TestIngestAutoDetect(t *testing.T) {
	s := openStore(t)
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	e, _, err := s.Ingest(bytes.NewReader(bin.Bytes()), "auto")
	if err != nil {
		t.Fatal(err)
	}
	if e.Format != "bin" {
		t.Fatalf("bin detected as %q", e.Format)
	}
	msrc := "128166372003061629,web,0,Write,8192,4096,501\n128166372003061700,web,0,Read,0,4096,700\n"
	e2, _, err := s.Ingest(strings.NewReader(msrc), "")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Format != "msrc" || e2.Requests != 2 {
		t.Fatalf("msrc: %+v", e2)
	}
}

// TestIngestSniffWindow: a format-less upload is sniffed from no more
// than trace.SniffLen bytes of its first chunk, so one whose first
// record starts past the window is refused though the chunk holds it,
// and nothing is staged; declared as csv, the same bytes land.
func TestIngestSniffWindow(t *testing.T) {
	s := openStore(t)
	data := strings.Repeat("# a comment line that keeps the first record out of the sniff window\n", trace.SniffLen/60) +
		"12.500,0,100,8,R,90.000,0\n"
	if len(data) <= trace.SniffLen || len(data) >= ingestChunk {
		t.Fatalf("%d bytes, want more than SniffLen and less than a chunk", len(data))
	}
	for _, format := range []string{"", "auto"} {
		_, _, err := s.Ingest(strings.NewReader(data), format)
		if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "no data record in the first 65536 bytes") {
			t.Fatalf("format %q: %v, want the sniff window's ErrBadTrace", format, err)
		}
	}
	if tmps, _ := os.ReadDir(filepath.Join(s.Root(), "tmp")); len(tmps) != 0 || s.Len() != 0 {
		t.Fatalf("refused uploads left %d staged files, %d entries", len(tmps), s.Len())
	}
	if e, _, err := s.Ingest(strings.NewReader(data), "csv"); err != nil || e.Requests != 1 {
		t.Fatalf("declared csv: %+v, %v", e, err)
	}
}

// TestIngestRejects keeps broken uploads out of the store.
func TestIngestRejects(t *testing.T) {
	s := openStore(t)
	for name, in := range map[string]struct {
		data, format string
	}{
		"garbage":      {"not,a,trace\n", "auto"},
		"empty":        {"", "csv"},
		"header-only":  {"# tracetracker name=a workload=b set=c tsdev_known=true\n", "csv"},
		"parse-error":  {"12.5,0,100,8,R,0,0\nbroken line\n", "csv"},
		"bad-format":   {"12.5,0,100,8,R,0,0\n", "nope"},
		"zero-sectors": {"", "bin"},
	} {
		if _, _, err := s.Ingest(strings.NewReader(in.data), in.format); err == nil {
			t.Errorf("%s: ingest succeeded", name)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("catalogue not empty: %d", s.Len())
	}
	tmps, _ := os.ReadDir(filepath.Join(s.Root(), "tmp"))
	if len(tmps) != 0 {
		t.Fatalf("staging leftovers after failed ingests: %d", len(tmps))
	}
}

// TestIndexRebuild checks Open recovers the catalogue from the
// sidecars, preserving every entry field, and that the store keeps no
// index.json: one left by an earlier version (here a corrupt one) is
// ignored and removed by Open and by GC.
func TestIndexRebuild(t *testing.T) {
	s := openStore(t)
	want, _, err := s.Ingest(bytes.NewReader(csvBytes(t, sampleTrace())), "csv")
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(s.Root(), "index.json")
	if _, err := os.Stat(idx); !os.IsNotExist(err) {
		t.Fatalf("the store wrote an index.json (stat: %v)", err)
	}
	if err := os.WriteFile(idx, []byte("{broken"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Resolve(want.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("rebuilt entry diverges:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(idx); !os.IsNotExist(err) {
		t.Fatalf("Open kept the leftover index.json (stat: %v)", err)
	}
	if err := os.WriteFile(idx, []byte("{broken"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(idx); !os.IsNotExist(err) {
		t.Fatalf("GC kept the leftover index.json (stat: %v)", err)
	}
	if s2.Len() != 1 {
		t.Fatalf("catalogue size after GC: %d", s2.Len())
	}
}

// TestMultiProcessCatalogue simulates two processes ingesting into the
// same root: a reopened store must see both traces even though neither
// writer's catalogue ever listed the other's (the sidecars are
// authoritative).
func TestMultiProcessCatalogue(t *testing.T) {
	root := filepath.Join(t.TempDir(), "shared")
	a, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := sampleTrace()
	tr2.Requests = tr2.Requests[:2]
	ea, _, err := a.Ingest(bytes.NewReader(csvBytes(t, sampleTrace())), "csv")
	if err != nil {
		t.Fatal(err)
	}
	eb, _, err := b.Ingest(bytes.NewReader(csvBytes(t, tr2)), "csv")
	if err != nil {
		t.Fatal(err)
	}
	// a's catalogue does not see b's ingest (per-process), but a fresh
	// Open sees everything on disk.
	fresh, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 2 {
		t.Fatalf("reopened catalogue: %d entries", fresh.Len())
	}
	for _, d := range []string{ea.Digest, eb.Digest} {
		if _, err := fresh.Resolve(d); err != nil {
			t.Fatalf("reopened store lost %s: %v", d, err)
		}
	}
}

// TestIngestErrorsAreBadTrace checks client-caused ingest failures
// carry the sentinel servers use to pick a 4xx status.
func TestIngestErrorsAreBadTrace(t *testing.T) {
	s := openStore(t)
	for name, in := range map[string]struct {
		data, format string
	}{
		"garbage":    {"not,a,trace\n", "auto"},
		"empty":      {"", "csv"},
		"bad-format": {"12.5,0,100,8,R,0,0\n", "nope"},
	} {
		_, _, err := s.Ingest(strings.NewReader(in.data), in.format)
		if !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: error %v does not wrap ErrBadTrace", name, err)
		}
	}
}

// TestResolvePrefix covers unique-prefix, ambiguous and unknown
// lookups.
func TestResolvePrefix(t *testing.T) {
	s := openStore(t)
	e, _, err := s.Ingest(bytes.NewReader(csvBytes(t, sampleTrace())), "csv")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Resolve(e.Digest[:8])
	if err != nil || got.Digest != e.Digest {
		t.Fatalf("prefix resolve: %v %+v", err, got)
	}
	if _, err := s.Resolve("ffffffff"); err == nil && e.Digest[:8] != "ffffffff" {
		t.Fatal("unknown prefix resolved")
	}
	if _, err := s.Resolve("not-hex!"); err == nil {
		t.Fatal("non-hex resolved")
	}
	if _, err := s.Resolve(""); err == nil {
		t.Fatal("empty prefix resolved")
	}
}

// TestGC removes staging leftovers, orphaned results and broken
// object pairs while keeping live data.
func TestGC(t *testing.T) {
	s := openStore(t)
	e, _, err := s.Ingest(bytes.NewReader(csvBytes(t, sampleTrace())), "csv")
	if err != nil {
		t.Fatal(err)
	}
	liveKey := strings.Repeat("ab", 32)
	if _, err := s.StoreResult(liveKey, e.Digest, []byte(`{"k":1}`), func(w io.Writer) error {
		_, err := w.Write([]byte("live result"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	orphanKey := strings.Repeat("cd", 32)
	if _, err := s.StoreResult(orphanKey, strings.Repeat("00", 32), nil, func(w io.Writer) error {
		_, err := w.Write([]byte("orphan result"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Staging leftover + a sidecar-less blob.
	if err := os.WriteFile(filepath.Join(s.Root(), "tmp", "ingest-stale"), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	hexName := strings.Repeat("ef", 32)
	if err := os.WriteFile(filepath.Join(s.Root(), "objects", hexName), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.TmpRemoved != 1 || st.ResultsRemoved != 1 || st.ObjectsRemoved != 1 {
		t.Fatalf("gc stats: %+v", st)
	}
	if _, _, ok := s.LookupResult(liveKey); !ok {
		t.Fatal("gc removed a live result")
	}
	if _, _, ok := s.LookupResult(orphanKey); ok {
		t.Fatal("gc kept an orphan result")
	}
	if _, err := s.Resolve(e.Digest); err != nil {
		t.Fatal("gc removed a live object")
	}
}

// TestIngestParallelMatchesSequential locks ingest at any worker
// count: with read-ahead enabled, every format (including a
// counted binary blob with trailing bytes, which the decoder stops
// before) must land with the same digest, size and summary as with
// none — the digest must cover every uploaded byte either way.
func TestIngestParallelMatchesSequential(t *testing.T) {
	tr := sampleTrace()
	var binBuf bytes.Buffer
	if err := trace.WriteBinary(&binBuf, tr); err != nil {
		t.Fatal(err)
	}
	binTrailing := append(append([]byte{}, binBuf.Bytes()...), []byte("trailing-bytes-beyond-count")...)

	// A trace past ReadAheadMinBytes, so its staged file is actually
	// decoded by the read-ahead decoder (smaller ones decode sequentially).
	bigCSV := bigCSV(t)

	cases := []struct {
		name   string
		format string
		data   []byte
	}{
		{"csv", "csv", csvBytes(t, tr)},
		{"bin", "bin", binBuf.Bytes()},
		{"bin-trailing", "bin", binTrailing},
		{"auto-sniffed", "auto", csvBytes(t, tr)},
		{"csv-big-parallel", "csv", bigCSV},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqStore := openStore(t)
			parStore := openStore(t)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			want, _, err := seqStore.Ingest(bytes.NewReader(tc.data), tc.format)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(2)
			got, created, err := parStore.Ingest(bytes.NewReader(tc.data), tc.format)
			if err != nil {
				t.Fatal(err)
			}
			if !created {
				t.Fatal("parallel ingest not created")
			}
			want.Ingested, got.Ingested = time.Time{}, time.Time{}
			if got != want {
				t.Fatalf("parallel entry diverges:\n got %+v\nwant %+v", got, want)
			}
			rc, _, err := parStore.OpenBlob(got.Digest)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			stored, err := io.ReadAll(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored, tc.data) {
				t.Fatal("parallel-ingested blob bytes diverge from upload")
			}
		})
	}
}

// TestIngestParallelRejects keeps the rejection behaviour intact with
// read-ahead enabled: undecodable uploads are ErrBadTrace and
// leave nothing behind.
func TestIngestParallelRejects(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := openStore(t)
	for _, in := range []struct{ data, format string }{
		{"not,a,trace\n", "csv"},
		{"", "bin"},
		{"garbage", "auto"},
	} {
		_, _, err := s.Ingest(strings.NewReader(in.data), in.format)
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%q as %q: err %v, want ErrBadTrace", in.data, in.format, err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("rejected uploads landed: %d entries", s.Len())
	}
	tmps, err := os.ReadDir(filepath.Join(s.Root(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("rejected uploads left %d staging files", len(tmps))
	}
}

// metricOf scrapes reg and returns the value of the unlabelled series
// name, read the way /metrics serves it.
func metricOf(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obstest.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	v, ok := obstest.SampleValue(samples, name, nil)
	if !ok {
		t.Fatalf("no series %s", name)
	}
	return v
}

// TestStoreMetrics checks the instrumentation hook: ingest volume and
// dedup on the store side.
func TestStoreMetrics(t *testing.T) {
	s := openStore(t)
	reg := obs.NewRegistry()
	s.SetMetrics(obs.NewCorpusMetrics(reg))
	metric := func(name string) float64 { return metricOf(t, reg, name) }

	data := csvBytes(t, sampleTrace())
	_, created, err := s.Ingest(bytes.NewReader(data), "csv")
	if err != nil || !created {
		t.Fatalf("first ingest: created=%v err=%v", created, err)
	}
	if got := metric("corpus_ingest_records_total"); got != float64(sampleTrace().Len()) {
		t.Fatalf("ingest records = %v after the first ingest, want %d", got, sampleTrace().Len())
	}
	// The dedup answer is not decoded: it reports the upload's bytes and
	// no records.
	if _, created, err = s.Ingest(bytes.NewReader(data), "csv"); err != nil || created {
		t.Fatalf("dedup ingest: created=%v err=%v", created, err)
	}
	if got := metric("corpus_ingest_bytes_total"); got != float64(2*len(data)) {
		t.Fatalf("ingest bytes = %v, want %d", got, 2*len(data))
	}
	if got := metric("corpus_ingest_records_total"); got != float64(sampleTrace().Len()) {
		t.Fatalf("ingest records = %v after a compared re-upload, want it unchanged at %d", got, sampleTrace().Len())
	}
	if traces, dedup, compared := metric("corpus_ingest_traces_total"), metric("corpus_dedup_hits_total"), metric("corpus_dedup_compared_total"); traces != 1 || dedup != 1 || compared != 1 {
		t.Fatalf("traces=%v dedup=%v compared=%v, want 1/1/1", traces, dedup, compared)
	}
	// A store opened on the same root answers the re-upload by digest,
	// and decodes nothing either.
	again, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	againReg := obs.NewRegistry()
	again.SetMetrics(obs.NewCorpusMetrics(againReg))
	if _, created, err = again.Ingest(bytes.NewReader(data), "csv"); err != nil || created {
		t.Fatalf("dedup by digest: created=%v err=%v", created, err)
	}
	if records, dedup, compared := metricOf(t, againReg, "corpus_ingest_records_total"), metricOf(t, againReg, "corpus_dedup_hits_total"), metricOf(t, againReg, "corpus_dedup_compared_total"); records != 0 || dedup != 1 || compared != 0 {
		t.Fatalf("records=%v dedup=%v compared=%v after a dedup by digest, want 0/1/0", records, dedup, compared)
	}
}
