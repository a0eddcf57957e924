package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// contractInput is one input of TestDecoderContract and what every
// decoder must make of it: the sequential codec's records, read one
// next at a time, and the error that ends them (nil for a clean EOF).
type contractInput struct {
	name, format string
	data         []byte
	path         string // data, staged for OpenFileDecoder
	want         []Request
	wantMeta     Meta
	wantErr      error
}

// contractInputs renders every input format clean and with a mid-stream
// parse error (for bin, a truncated last record), each just large
// enough that OpenFileDecoder splits it across workers and the error
// lands in a later segment.
func contractInputs(t *testing.T) []contractInput {
	corrupt := func(data []byte, bad string) []byte {
		lines := strings.SplitAfter(string(data), "\n")
		mid := 2 * len(lines) / 3
		return []byte(strings.Join(lines[:mid], "") + "# a comment\n\n" + bad + "\n" + strings.Join(lines[mid:], ""))
	}
	var ins []contractInput
	for _, f := range []struct {
		format  string
		records int // just over ParallelMinBytes, at 25–42 bytes a record
		write   func(io.Writer, *Trace) error
		bad     func([]byte) []byte
	}{
		{"csv", 32_000, WriteCSV, func(b []byte) []byte { return corrupt(b, "12.5,0,xx,8,R,1.0,0") }},
		{"bin", 32_000, WriteBinary, func(b []byte) []byte { return b[:len(b)-17] }},
		{"msrc", 26_000, writeMSRCStyle, func(b []byte) []byte { return corrupt(b, "128166372003061629,hm,zz,Read,2096128,512,80") }},
		{"spc", 43_000, writeSPCStyle, func(b []byte) []byte { return corrupt(b, "1,bad-lba,4096,R,1.5") }},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf, benchTrace(f.records)); err != nil {
			t.Fatal(err)
		}
		for _, in := range []contractInput{
			{name: f.format + "/clean", format: f.format, data: buf.Bytes()},
			{name: f.format + "/parse-error", format: f.format, data: f.bad(buf.Bytes())},
		} {
			if len(in.data) < ParallelMinBytes {
				t.Fatalf("%s: %d bytes, too few for OpenFileDecoder to decode in parallel", in.name, len(in.data))
			}
			in.path = filepath.Join(t.TempDir(), "in")
			if err := os.WriteFile(in.path, in.data, 0o666); err != nil {
				t.Fatal(err)
			}
			seq := newSeq(t, in.format, in.data)
			in.want, in.wantErr = drainBy(seq, 0)
			in.wantMeta = seq.Meta()
			if strings.HasSuffix(in.name, "clean") {
				whole, err := ReadFormat(in.format, bytes.NewReader(in.data))
				if err != nil || in.wantErr != nil {
					t.Fatalf("%s: %v, %v", in.name, err, in.wantErr)
				}
				if !slices.Equal(whole.Requests, in.want) {
					t.Fatalf("%s: next delivers other records than ReadFormat", in.name)
				}
			} else if in.wantErr == nil || len(in.want) == 0 {
				t.Fatalf("%s: want records and then an error, got %d records and %v", in.name, len(in.want), in.wantErr)
			}
			ins = append(ins, in)
		}
	}
	return ins
}

// TestDecoderContract holds every decoder the package builds to the one
// Decoder contract, on clean inputs and on inputs a parse error ends,
// with dst lengths 1, 7 and 1024: no run is longer than dst, a run is
// empty only with an error and io.EOF only with an empty run, the runs
// concatenate to the sequential codec's records (which, on a clean
// input, are ReadFormat's before its sort: these inputs are sorted),
// the stream ends with the sequential codec's error text and line
// number, the metadata is the codec's, and Close is safe twice and
// leaves every later Read failing with no data. The decoders: the four
// codecs (NewDecoder), OpenFileDecoder sequential and parallel,
// NewParallelDecoder, and a ReorderDecoder over each of them.
func TestDecoderContract(t *testing.T) {
	const workers = 4
	type builder struct {
		name string
		open func(*testing.T, contractInput) Decoder
	}
	builders := []builder{
		{"NewDecoder", func(t *testing.T, in contractInput) Decoder { return newSeq(t, in.format, in.data) }},
		{"OpenFileDecoder/sequential", func(t *testing.T, in contractInput) Decoder { return openFile(t, in, 1) }},
		{"OpenFileDecoder/parallel", func(t *testing.T, in contractInput) Decoder {
			dec := openFile(t, in, workers)
			if _, ok := dec.(*ParallelDecoder); !ok {
				t.Fatalf("OpenFileDecoder on %d workers built a %T", workers, dec)
			}
			return dec
		}},
		{"NewParallelDecoder", func(t *testing.T, in contractInput) Decoder {
			return NewParallelDecoder(bytes.NewReader(in.data), int64(len(in.data)), in.format, workers)
		}},
	}
	for _, b := range builders {
		builders = append(builders, builder{"ReorderDecoder/" + b.name, func(t *testing.T, in contractInput) Decoder {
			return NewReorderDecoder(b.open(t, in), 16)
		}})
	}
	for _, in := range contractInputs(t) {
		for _, b := range builders {
			for _, size := range []int{1, 7, 1024} {
				t.Run(fmt.Sprintf("%s/%s/dst=%d", b.name, in.name, size), func(t *testing.T) {
					t.Parallel()
					dec := b.open(t, in)
					got, err := readRuns(t, dec, size)
					if !slices.Equal(got, in.want) {
						t.Fatalf("delivered %d records, the sequential codec %d (or they differ)", len(got), len(in.want))
					}
					if (err == nil) != (in.wantErr == nil) || err != nil && err.Error() != in.wantErr.Error() {
						t.Fatalf("ends with %v, the sequential codec with %v", err, in.wantErr)
					}
					if in.wantErr == nil && dec.Meta() != in.wantMeta {
						t.Fatalf("meta %+v, the sequential codec's %+v", dec.Meta(), in.wantMeta)
					}
					dec.Close()
					dec.Close()
					if run, err := dec.Read(make([]Request, size)); len(run) != 0 || err == nil || err == io.EOF {
						t.Fatalf("Read after Close: %d records and %v, want none and an error", len(run), err)
					}
				})
			}
		}
	}
}

// openFile is OpenFileDecoder over in's staged file on workers.
func openFile(t *testing.T, in contractInput, workers int) Decoder {
	t.Helper()
	dec, format, err := OpenFileDecoder(in.path, "auto", workers)
	if err != nil {
		t.Fatal(err)
	}
	if format != in.format {
		t.Fatalf("sniffed %q, want %q", format, in.format)
	}
	return dec
}

// readRuns drains dec through a size-long dst, checking each run's
// shape, and returns the records and the terminal error (nil for a
// clean EOF).
func readRuns(t *testing.T, dec Decoder, size int) ([]Request, error) {
	t.Helper()
	var out []Request
	dst := make([]Request, size)
	for {
		run, err := dec.Read(dst)
		if len(run) > size {
			t.Fatalf("a run of %d records for a dst of %d", len(run), size)
		}
		if len(run) == 0 && err == nil {
			t.Fatal("an empty run without an error")
		}
		if err == io.EOF && len(run) != 0 {
			t.Fatalf("io.EOF with a run of %d records", len(run))
		}
		out = append(out, run...)
		if err != nil {
			return out, noEOF(err)
		}
	}
}

// TestParallelDecoderReadAfterClose: once Close has run, Read fails at
// once with no data. Before Close latched that, the segment rings still
// held decoded batches, which Read handed out with a nil error; past
// them it waited forever on the ring of a segment no stopped worker
// would ever close.
func TestParallelDecoderReadAfterClose(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, benchTrace(200_000)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	pd := NewParallelDecoder(bytes.NewReader(data), int64(len(data)), "bin", 2)
	if nseg := len(pd.plan.segs); nseg <= 2 {
		t.Fatalf("fixture splits into %d segments, want more than the 2 workers", nseg)
	}
	done := make(chan error, 1)
	go func() {
		if _, err := pd.ReadBatch(); err != nil {
			done <- err
			return
		}
		pd.Close()
		after := 0
		for {
			run, err := pd.ReadBatch()
			after += len(run)
			if err != nil {
				if after > 0 || err != errClosed {
					err = fmt.Errorf("after Close: %d records, then %v; want none and %v", after, err, errClosed)
				} else {
					err = nil
				}
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Read after Close blocked")
	}
}
