package trace

// Locks for the parallel decode pipeline: for every input format and
// worker count, the parallel decoder must produce exactly the
// sequential Decoder's request sequence (verified structurally and by
// re-encoding both sides to identical bytes), stop at the same record
// on malformed inputs, and stay allocation-free per record in steady
// state.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// parVariant is one input fixture the identity tests decode both ways.
type parVariant struct {
	name   string
	format string
	data   []byte
}

// parVariants renders the fixture matrix: every format, plus layout
// hazards (metadata header, comment runs mid-file, CRLF line endings,
// blank lines, uncounted binary streams).
func parVariants(t testing.TB, n int) []parVariant {
	t.Helper()
	tr := benchTrace(n)
	var out []parVariant
	render := func(name, format string, enc func(io.Writer, *Trace) error) []byte {
		var buf bytes.Buffer
		if err := enc(&buf, tr); err != nil {
			t.Fatal(err)
		}
		out = append(out, parVariant{name: name, format: format, data: buf.Bytes()})
		return buf.Bytes()
	}
	csvData := render("csv/plain", "csv", WriteCSV)
	render("bin/counted", "bin", WriteBinary)
	render("msrc/plain", "msrc", writeMSRCStyle)
	render("spc/plain", "spc", writeSPCStyle)

	// Uncounted binary stream (streaming-encoder form).
	var ubin bytes.Buffer
	enc := NewBinaryEncoder(&ubin)
	if err := EncodeTrace(enc, tr); err != nil {
		t.Fatal(err)
	}
	out = append(out, parVariant{name: "bin/uncounted", format: "bin", data: ubin.Bytes()})

	// CSV with comment runs, blank lines and CRLF endings sprinkled
	// through the data region.
	lines := strings.Split(strings.TrimSuffix(string(csvData), "\n"), "\n")
	var hazard strings.Builder
	for i, ln := range lines {
		switch {
		case i > 0 && i%997 == 0:
			hazard.WriteString("# mid-file comment run\n# another comment\n\n")
		case i > 0 && i%411 == 0:
			hazard.WriteString(ln)
			hazard.WriteString("\r\n")
			continue
		}
		hazard.WriteString(ln)
		hazard.WriteString("\n")
	}
	out = append(out, parVariant{name: "csv/hazards", format: "csv", data: []byte(hazard.String())})

	// MSRC with a leading comment/blank prelude.
	var mbuf bytes.Buffer
	mbuf.WriteString("# event trace export\n\n# columns: ts,host,disk,op,off,size,resp\n")
	if err := writeMSRCStyle(&mbuf, tr); err != nil {
		t.Fatal(err)
	}
	out = append(out, parVariant{name: "msrc/prelude", format: "msrc", data: mbuf.Bytes()})
	return out
}

// collectSeq drains dec one record per Read, returning the requests
// before the terminal condition and the terminal error (nil for clean
// EOF).
func collectSeq(dec Decoder) ([]Request, Meta, error) {
	var out []Request
	dst := make([]Request, 1)
	for {
		run, err := dec.Read(dst)
		out = append(out, run...)
		if err == io.EOF {
			return out, dec.Meta(), nil
		}
		if err != nil {
			return out, dec.Meta(), err
		}
	}
}

// encodeCSVBytes renders a request slice under meta for byte-level
// comparison.
func encodeCSVBytes(t testing.TB, m Meta, reqs []Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewCSVEncoder(&buf)
	if err := enc.Begin(m); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := enc.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelDecodeByteIdentical is the acceptance lock: the parallel
// decoder, at workers 1/4/8, reproduces the sequential decoder
// byte-for-byte on every format — over an in-memory io.ReaderAt
// ("file") and the way a non-seekable input reaches it ("stream":
// staged to a file, then OpenFileDecoder, which also picks the
// sequential decoder for stagings under ParallelMinBytes).
func TestParallelDecodeByteIdentical(t *testing.T) {
	for _, v := range parVariants(t, 30_000) {
		seq, err := NewDecoder(v.format, bytes.NewReader(v.data))
		if err != nil {
			t.Fatal(err)
		}
		wantReqs, wantMeta, wantErr := collectSeq(seq)
		if wantErr != nil {
			t.Fatalf("%s: sequential decode failed: %v", v.name, wantErr)
		}
		want := encodeCSVBytes(t, wantMeta, wantReqs)
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/file/workers=%d", v.name, workers), func(t *testing.T) {
				pd := NewParallelDecoder(bytes.NewReader(v.data), int64(len(v.data)), v.format, workers)
				defer pd.Close()
				gotReqs, gotMeta, gotErr := collectSeq(pd)
				if gotErr != nil {
					t.Fatalf("parallel decode failed: %v", gotErr)
				}
				if gotMeta != wantMeta {
					t.Fatalf("meta mismatch: got %+v want %+v", gotMeta, wantMeta)
				}
				got := encodeCSVBytes(t, gotMeta, gotReqs)
				if !bytes.Equal(got, want) {
					t.Fatalf("parallel output differs from sequential (%d vs %d requests)", len(gotReqs), len(wantReqs))
				}
			})
			t.Run(fmt.Sprintf("%s/stream/workers=%d", v.name, workers), func(t *testing.T) {
				staged := filepath.Join(t.TempDir(), "staged")
				if err := os.WriteFile(staged, v.data, 0o666); err != nil {
					t.Fatal(err)
				}
				dec, format, err := OpenFileDecoder(staged, "auto", workers)
				if err != nil {
					t.Fatal(err)
				}
				defer dec.Close()
				if format != v.format {
					t.Fatalf("staged file sniffed as %q, want %q", format, v.format)
				}
				gotReqs, gotMeta, gotErr := collectSeq(dec)
				if gotErr != nil {
					t.Fatalf("staged decode failed: %v", gotErr)
				}
				if gotMeta != wantMeta {
					t.Fatalf("meta mismatch: got %+v want %+v", gotMeta, wantMeta)
				}
				got := encodeCSVBytes(t, gotMeta, gotReqs)
				if !bytes.Equal(got, want) {
					t.Fatalf("staged output differs from sequential (%d vs %d requests)", len(gotReqs), len(wantReqs))
				}
			})
		}
	}
}

// TestParallelDecodeErrors locks error behaviour: the parallel path
// must deliver exactly the records the sequential decoder delivers
// before failing, then fail with exactly the sequential decoder's
// error text — absolute line numbers included (the merger's
// per-segment line accounting).
func TestParallelDecodeErrors(t *testing.T) {
	// Big enough that the file splitter plans several segments (256 KiB
	// floor each): the corrupt lines land in later segments, so the
	// absolute line numbers genuinely exercise the merger's per-segment
	// accounting rather than a single segment-0 base.
	tr := benchTrace(40_000)
	var csvBuf, binBuf, msrcBuf, spcBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&binBuf, tr); err != nil {
		t.Fatal(err)
	}
	if err := writeMSRCStyle(&msrcBuf, tr); err != nil {
		t.Fatal(err)
	}
	if err := writeSPCStyle(&spcBuf, tr); err != nil {
		t.Fatal(err)
	}

	// corrupt splices a bad line at frac of the way through a text
	// fixture, with a comment run just before it so line numbers and
	// record counts diverge.
	corrupt := func(data string, frac float64, bad string) []byte {
		lines := strings.SplitAfter(data, "\n")
		mid := int(frac * float64(len(lines)))
		return []byte(strings.Join(lines[:mid], "") + "# a comment\n\n" + bad + "\n" + strings.Join(lines[mid:], ""))
	}
	lateHeader := func() []byte {
		lines := strings.SplitAfter(csvBuf.String(), "\n")
		mid := len(lines) / 2
		return []byte(strings.Join(lines[:mid], "") +
			"# tracetracker name=late workload=x set=y tsdev_known=true\n" +
			strings.Join(lines[mid:], ""))
	}()
	truncBin := binBuf.Bytes()[:binBuf.Len()-17]

	cases := []struct {
		name   string
		format string
		data   []byte
	}{
		{"csv/late-header", "csv", lateHeader},
		{"csv/bad-record", "csv", corrupt(csvBuf.String(), 2.0/3, "not,a,record")},
		{"csv/bad-field", "csv", corrupt(csvBuf.String(), 0.9, "12.5,0,xx,8,R,1.0,0")},
		{"bin/truncated-counted", "bin", truncBin},
		{"msrc/bad-first-line", "msrc", []byte("# c\nnot-an-msrc-line\n")},
		{"msrc/bad-mid-line", "msrc", corrupt(msrcBuf.String(), 0.75, "128166372003061629,hm,zz,Read,2096128,512,80")},
		{"spc/bad-mid-line", "spc", corrupt(spcBuf.String(), 0.4, "1,bad-lba,4096,R,1.5")},
		{"bin/empty", "bin", nil},
		{"bin/short-header", "bin", []byte("TTR1\x05")},
	}
	for _, tc := range cases {
		seq, err := NewDecoder(tc.format, bytes.NewReader(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		wantReqs, _, wantErr := collectSeq(seq)
		if wantErr == nil {
			t.Fatalf("%s: expected a sequential decode error", tc.name)
		}
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				pd := NewParallelDecoder(bytes.NewReader(tc.data), int64(len(tc.data)), tc.format, workers)
				defer pd.Close()
				gotReqs, _, gotErr := collectSeq(pd)
				if gotErr == nil {
					t.Fatalf("parallel decode succeeded, want error %q", wantErr)
				}
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("parallel error text diverges:\n got %q\nwant %q", gotErr, wantErr)
				}
				if len(gotReqs) != len(wantReqs) {
					t.Fatalf("parallel delivered %d records before failing, sequential %d", len(gotReqs), len(wantReqs))
				}
			})
		}
	}
}

// TestParallelDecodeEmptyText locks the no-data cases: empty input and
// comment-only input decode to zero records with the prelude metadata.
func TestParallelDecodeEmptyText(t *testing.T) {
	header := "# tracetracker name=empty workload=w set=S tsdev_known=true\n# comment\n\n"
	for _, tc := range []struct {
		name, format, data string
	}{
		{"csv/empty", "csv", ""},
		{"csv/comments-only", "csv", header},
		{"spc/empty", "spc", ""},
		{"msrc/comments-only", "msrc", "# nothing here\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := NewDecoder(tc.format, bytes.NewReader([]byte(tc.data)))
			if err != nil {
				t.Fatal(err)
			}
			wantReqs, wantMeta, wantErr := collectSeq(seq)
			if wantErr != nil || len(wantReqs) != 0 {
				t.Fatalf("sequential: %d reqs, err %v", len(wantReqs), wantErr)
			}
			pd := NewParallelDecoder(bytes.NewReader([]byte(tc.data)), int64(len(tc.data)), tc.format, 4)
			defer pd.Close()
			gotReqs, gotMeta, gotErr := collectSeq(pd)
			if gotErr != nil || len(gotReqs) != 0 {
				t.Fatalf("parallel: %d reqs, err %v", len(gotReqs), gotErr)
			}
			if gotMeta != wantMeta {
				t.Fatalf("meta mismatch: got %+v want %+v", gotMeta, wantMeta)
			}
		})
	}
}

// TestParallelDecoderCloseEarly abandons a parallel decoder mid-stream;
// Close must join every goroutine without deadlocking (the -race run
// doubles as a leak check for blocked sends).
func TestParallelDecoderCloseEarly(t *testing.T) {
	tr := benchTrace(50_000)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	pd := NewParallelDecoder(bytes.NewReader(data), int64(len(data)), "csv", 4)
	one := make([]Request, 1)
	for i := 0; i < 10; i++ {
		if _, err := pd.Read(one); err != nil {
			t.Fatal(err)
		}
	}
	pd.Close()
}

// waitGoroutines retries until the runtime goroutine count returns to
// the baseline, dumping stacks on timeout. Worker exits are observable
// only after their final unwind, hence the retry loop.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbandonedDecodeReleasesGoroutines is the leak regression for the
// PR 4 known delta: a decode abandoned on an error path must release
// every worker goroutine. A decode that reaches its error stops its
// workers, Summarize closes the decoder it was draining when the decode
// fails, and so does a reorder wrapper closed early, so repeated
// failing decodes leave the goroutine count at its baseline.
func TestAbandonedDecodeReleasesGoroutines(t *testing.T) {
	tr := benchTrace(40_000)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Corrupt a record past the first segment so decode workers are
	// mid-flight when the merger surfaces the error.
	lines := strings.SplitAfter(buf.String(), "\n")
	mid := len(lines) / 2
	data := []byte(strings.Join(lines[:mid], "") + "not,a,record\n" + strings.Join(lines[mid:], ""))

	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		pd := NewParallelDecoder(bytes.NewReader(data), int64(len(data)), "csv", 4)
		if _, err := drain(pd); err == nil {
			t.Fatal("drain: want a decode error")
		}
		pd = NewParallelDecoder(bytes.NewReader(data), int64(len(data)), "csv", 4)
		if _, err := Summarize(pd); err == nil {
			t.Fatal("Summarize: want a decode error")
		}
		// A reorder wrapper must forward Close to its parallel inner.
		rd := NewReorderDecoder(NewParallelDecoder(bytes.NewReader(data), int64(len(data)), "csv", 4), 8)
		if _, err := rd.Read(make([]Request, 1)); err != nil {
			t.Fatal(err)
		}
		rd.Close()
	}
	waitGoroutines(t, base)
}

// TestParallelDecodeAllocs bounds the per-record allocation cost of
// the parallel path: amortized over a full decode it must stay under
// 0.01 allocs/record — the free-list recycling at work — for bin and
// for csv, the upload's decode.
func TestParallelDecodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 120_000
	tr := benchTrace(n)
	drain := func(pd *ParallelDecoder) {
		got := 0
		for {
			b, err := pd.ReadBatch()
			got += len(b)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got != n {
			t.Fatalf("decoded %d of %d", got, n)
		}
	}
	for _, format := range []string{"bin", "csv"} {
		var buf bytes.Buffer
		if err := WriteFormat(format, &buf, tr); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		avg := testing.AllocsPerRun(3, func() {
			pd := NewParallelDecoder(bytes.NewReader(data), int64(len(data)), format, 4)
			drain(pd)
			pd.Close()
		})
		if perRec := avg / n; perRec > 0.01 {
			t.Fatalf("%s parallel decode allocates %.4f/record (%.0f/run), want <= 0.01", format, perRec, avg)
		}
	}
}

// TestParallelDecoderReadBuffers: a decode takes at most one read
// buffer per worker, however many segments its input splits into, and
// gives every buffer it takes back at Close — so decodes on warm
// buffers allocate none, and what is kept never exceeds the workers.
// keptReaders holds room for more readers than the workers, so a decode
// that took a buffer per segment would leave more behind.
func TestParallelDecoderReadBuffers(t *testing.T) {
	const workers = 2
	if keptDecodes*keptWorkers <= workers {
		t.Fatalf("keptReaders holds %d buffers, want more than %d workers", keptDecodes*keptWorkers, workers)
	}
	tr := benchTrace(120_000)
	for _, format := range []string{"csv", "bin"} {
		var buf bytes.Buffer
		if err := WriteFormat(format, &buf, tr); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		keptReaders.Trim()
		keptBatches.Trim()
		for round := 0; round < 3; round++ {
			for _, size := range []int{len(data) / 4, len(data)} {
				pd := NewParallelDecoder(bytes.NewReader(data[:size]), int64(size), format, workers)
				if nseg := len(pd.plan.segs); size == len(data) && nseg <= workers {
					t.Fatalf("%s: fixture splits into %d segments, want more than %d workers", format, nseg, workers)
				}
				for {
					if _, err := pd.ReadBatch(); err != nil {
						if err != io.EOF && size == len(data) {
							t.Fatal(err)
						}
						break
					}
				}
				pd.Close()
				if n := keptReaders.Bytes() / readBufLen; n < 1 || n > workers {
					t.Fatalf("%s round %d: %d read buffers kept after a %d-segment decode on %d workers, want 1 to %d",
						format, round, n, len(pd.plan.segs), workers, workers)
				}
			}
		}
		if kept := keptReaders.Bytes() + keptBatches.Bytes(); kept > keptBound {
			t.Fatalf("%s: %d B kept, over the %d B bound", format, kept, keptBound)
		}
	}
	// What the idle timers run.
	keptReaders.Trim()
	keptBatches.Trim()
	if kept := keptReaders.Bytes() + keptBatches.Bytes(); kept != 0 {
		t.Fatalf("%d B kept after trimming", kept)
	}
}
