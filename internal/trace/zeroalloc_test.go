package trace

// Allocation locks for the codec hot paths: steady-state Decoder.Read
// must not allocate for any input format, one record or a batch at a
// time, and Encoder.Write must not allocate for any output format. These are the properties the
// zero-allocation codec rewrite exists for; a regression here is a
// performance bug even when output stays correct.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// allocSample renders a trace in the given input format.
func allocSample(t *testing.T, format string, n int) []byte {
	t.Helper()
	tr := benchTrace(n)
	var buf bytes.Buffer
	var err error
	switch format {
	case "csv":
		err = WriteCSV(&buf, tr)
	case "bin":
		err = WriteBinary(&buf, tr)
	case "msrc":
		err = writeMSRCStyle(&buf, tr)
	case "spc":
		err = writeSPCStyle(&buf, tr)
	default:
		t.Fatalf("unknown format %q", format)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecoderNextZeroAlloc locks a one-record Read, Read(dst[:1]) —
// the shape of the engine's first-record probes, and what Next was
// before Read replaced it — to zero allocations per record in steady
// state, for all four input formats.
func TestDecoderNextZeroAlloc(t *testing.T) {
	const runs = 2000
	for _, format := range []string{"csv", "bin", "msrc", "spc"} {
		t.Run(format, func(t *testing.T) {
			data := allocSample(t, format, runs+100)
			dec, err := NewDecoder(format, bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]Request, 1)
			// Warm up: first reads grow scratch and fill buffers.
			for i := 0; i < 50; i++ {
				if _, err := dec.Read(dst); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(runs, func() {
				if _, err := dec.Read(dst); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("%s Decoder.Read(dst[:1]) allocates %.3f per record, want 0", format, avg)
			}
		})
	}
}

// TestDecodeBatchZeroAlloc locks the batched decode path to zero
// allocations per batch in steady state.
func TestDecodeBatchZeroAlloc(t *testing.T) {
	const runs = 200
	const batch = 64
	for _, format := range []string{"csv", "bin", "msrc", "spc"} {
		t.Run(format, func(t *testing.T) {
			data := allocSample(t, format, (runs+10)*batch)
			dec, err := NewDecoder(format, bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]Request, batch)
			if _, err := DecodeBatch(dec, buf); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(runs, func() {
				if _, err := DecodeBatch(dec, buf); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("%s DecodeBatch allocates %.3f per batch, want 0", format, avg)
			}
		})
	}
}

// TestEncoderWriteZeroAlloc locks Encoder.Write to zero allocations
// per record in steady state, for all four output formats.
func TestEncoderWriteZeroAlloc(t *testing.T) {
	const runs = 2000
	reqs := benchTrace(64).Requests
	for _, format := range []string{"csv", "bin", "blktrace", "fio"} {
		t.Run(format, func(t *testing.T) {
			enc, err := NewEncoder(format, io.Discard, "/dev/alloc")
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Begin(Meta{Name: "alloc", Workload: "w", Set: "FIU", TsdevKnown: true}); err != nil {
				t.Fatal(err)
			}
			// Warm up the scratch buffers.
			for _, r := range reqs {
				if err := enc.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			avg := testing.AllocsPerRun(runs, func() {
				if err := enc.Write(reqs[i%len(reqs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Fatalf("%s Encoder.Write allocates %.3f per record, want 0", format, avg)
			}
		})
	}
}

// TestSummarizerZeroAlloc locks the one-pass summarizer fold: ingest
// and tracestat run it over every batch of whole corpora. Batches of
// every length up to the first one's reuse its flag scratch.
func TestSummarizerZeroAlloc(t *testing.T) {
	reqs := benchTrace(64).Requests
	acc := NewSummarizer()
	acc.AddBatch(reqs)
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		acc.AddBatch(reqs[:1+i%len(reqs)])
		i++
	})
	if avg != 0 {
		t.Fatalf("Summarizer.AddBatch allocates %.3f per batch, want 0", avg)
	}
}

// TestReorderWindowZeroAlloc locks OpenFileDecoder's reads of the
// near-sorted formats, whose records pass through the format's reorder
// window, to zero allocations per run once the window is full: the
// window's heap is typed, so no record is boxed on its way through.
func TestReorderWindowZeroAlloc(t *testing.T) {
	const runs, batch = 200, 64
	for _, format := range []string{"msrc", "spc"} {
		t.Run(format, func(t *testing.T) {
			window := ReorderWindow(format)
			warm := window + 1000
			path := filepath.Join(t.TempDir(), "in."+format)
			if err := os.WriteFile(path, nearSorted(allocSample(t, format, warm+(runs+10)*batch)), 0o666); err != nil {
				t.Fatal(err)
			}
			dec, _, err := openFileDecoder(path, format, false)
			if err != nil {
				t.Fatal(err)
			}
			defer dec.Close()
			if _, ok := dec.(*reorderDecoder); !ok {
				t.Fatalf("OpenFileDecoder built a %T, want the reorder window", dec)
			}
			buf := make([]Request, batch)
			for read := 0; read < warm; {
				run, err := dec.Read(buf)
				if err != nil {
					t.Fatal(err)
				}
				read += len(run)
			}
			avg := testing.AllocsPerRun(runs, func() {
				if _, err := dec.Read(buf); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("%s through its reorder window allocates %.3f per run of %d records, want 0", format, avg, batch)
			}
		})
	}
}
