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
	path         string // data, staged for openFileDecoder
	want         []Request
	wantMeta     Meta
	wantErr      error
}

// contractInputs renders every input format clean and with a mid-stream
// parse error (for bin, a truncated last record), each just large
// enough that openFileDecoder reads a text input ahead of its consumer,
// and the error lands many batches in.
func contractInputs(t *testing.T) []contractInput {
	corrupt := func(data []byte, bad string) []byte {
		lines := strings.SplitAfter(string(data), "\n")
		mid := 2 * len(lines) / 3
		return []byte(strings.Join(lines[:mid], "") + "# a comment\n\n" + bad + "\n" + strings.Join(lines[mid:], ""))
	}
	var ins []contractInput
	for _, f := range []struct {
		format  string
		records int // just over ReadAheadMinBytes, at 25–42 bytes a record
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
			if len(in.data) < ReadAheadMinBytes {
				t.Fatalf("%s: %d bytes, too few for openFileDecoder to read ahead", in.name, len(in.data))
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
// input, are ReadFormat's, sorted or not: these inputs are sorted),
// the stream ends with the sequential codec's error text and line
// number, the metadata is the codec's, and Close is safe twice and
// leaves every later Read failing with no data. The decoders: the four
// codecs (NewDecoder), openFileDecoder without and with read-ahead
// permitted (read ahead for text, the sequential codec for bin; bin's
// read-ahead leg is NewParallelDecoder's), NewParallelDecoder, and a
// reorder window over each of them. The subtests run in parallel, so
// they choose the path through openFileDecoder's argument, never
// through GOMAXPROCS.
func TestDecoderContract(t *testing.T) {
	type builder struct {
		name string
		open func(*testing.T, contractInput) Decoder
	}
	builders := []builder{
		{"NewDecoder", func(t *testing.T, in contractInput) Decoder { return newSeq(t, in.format, in.data) }},
		{"OpenFileDecoder/sequential", func(t *testing.T, in contractInput) Decoder { return openFile(t, in, false) }},
		{"OpenFileDecoder/parallel", func(t *testing.T, in contractInput) Decoder {
			dec := openFile(t, in, true)
			inner := dec
			if rd, ok := dec.(*reorderDecoder); ok {
				inner = rd.inner
			}
			if _, ok := inner.(*binaryDecoder); in.format == "bin" && !ok {
				t.Fatalf("openFileDecoder with read-ahead built a %T for bin, want the sequential codec", inner)
			}
			if _, ok := inner.(*ReadAhead); in.format != "bin" && !ok {
				t.Fatalf("openFileDecoder with read-ahead built a %T for %s", inner, in.format)
			}
			return dec
		}},
		{"NewParallelDecoder", func(t *testing.T, in contractInput) Decoder {
			return NewParallelDecoder(bytes.NewReader(in.data), int64(len(in.data)), in.format, 0)
		}},
	}
	for _, b := range builders {
		builders = append(builders, builder{"ReorderDecoder/" + b.name, func(t *testing.T, in contractInput) Decoder {
			return newReorderDecoder(b.open(t, in), 16)
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

// TestDecoderContractMeta: a read-ahead decoder's Meta is the
// sequential codec's before the first Read and after every run of one
// record, on a csv whose metadata header, behind a comment and a blank
// line, the first Read parses. The decode goroutine hands each batch
// over with the metadata its Read left; under -race this is the check
// of that hand-off.
func TestDecoderContractMeta(t *testing.T) {
	tr := benchTrace(32_000)
	var buf bytes.Buffer
	buf.WriteString("# exported for a test\n\n")
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		open func(*testing.T) Decoder
	}{
		{"OpenFileDecoder", func(t *testing.T) Decoder {
			dec, _, err := openFileDecoder(path, "csv", true)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := dec.(*ReadAhead); !ok {
				t.Fatalf("openFileDecoder with read-ahead built a %T for %d bytes of csv", dec, len(data))
			}
			return dec
		}},
		{"NewParallelDecoder", func(*testing.T) Decoder {
			return NewParallelDecoder(bytes.NewReader(data), int64(len(data)), "csv", 0)
		}},
	} {
		t.Run(b.name, func(t *testing.T) {
			seq, dec := newSeq(t, "csv", data), b.open(t)
			defer dec.Close()
			one, want := make([]Request, 1), make([]Request, 1)
			for runs := 0; ; runs++ {
				if dec.Meta() != seq.Meta() {
					t.Fatalf("after %d runs: meta %+v, the sequential codec's %+v", runs, dec.Meta(), seq.Meta())
				}
				run, err := dec.Read(one)
				wantRun, wantErr := seq.Read(want)
				if !slices.Equal(run, wantRun) || err != wantErr {
					t.Fatalf("run %d: %v and %v, the sequential codec's %v and %v", runs, run, err, wantRun, wantErr)
				}
				if err != nil {
					break
				}
			}
			if dec.Meta() != tr.Meta() {
				t.Fatalf("meta %+v at the end, want the header's %+v", dec.Meta(), tr.Meta())
			}
		})
	}
}

// nearSorted displaces data's records the way event tracing does, as
// cmd/testdata's fixtures are: every seventh line, starting with the
// fourth, trades places with its successor.
func nearSorted(data []byte) []byte {
	lines := strings.SplitAfter(string(data), "\n")
	for i := 3; i+1 < len(lines) && lines[i+1] != ""; i += 7 {
		lines[i], lines[i+1] = lines[i+1], lines[i]
	}
	return []byte(strings.Join(lines, ""))
}

// TestDecoderContractArrivalOrder: OpenFileDecoder reads a near-sorted
// msrc or spc file in arrival order, sequential or read ahead — the
// records ReadFormat's whole-trace sort yields — while NewDecoder still
// reads it in file order.
func TestDecoderContractArrivalOrder(t *testing.T) {
	for _, f := range []struct {
		format  string
		records int
		write   func(io.Writer, *Trace) error
	}{
		{"msrc", 26_000, writeMSRCStyle},
		{"spc", 43_000, writeSPCStyle},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf, benchTrace(f.records)); err != nil {
			t.Fatal(err)
		}
		data := nearSorted(buf.Bytes())
		path := filepath.Join(t.TempDir(), "in."+f.format)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		sorted, err := ReadFormat(f.format, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if fileOrder, _ := drainBy(newSeq(t, f.format, data), 0); slices.Equal(fileOrder, sorted.Requests) {
			t.Fatalf("%s: fixture is already sorted", f.format)
		}
		for _, ahead := range []bool{false, true} {
			dec, _, err := openFileDecoder(path, f.format, ahead)
			if err != nil {
				t.Fatal(err)
			}
			got, err := readRuns(t, dec, 1024)
			dec.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, sorted.Requests) {
				t.Fatalf("%s, read-ahead %v: OpenFileDecoder delivers other records than ReadFormat's sort", f.format, ahead)
			}
		}
	}
}

// openFile is openFileDecoder over in's staged file, read-ahead
// permitted or not.
func openFile(t *testing.T, in contractInput, ahead bool) Decoder {
	t.Helper()
	dec, format, err := openFileDecoder(in.path, "auto", ahead)
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
// once with no data, though batches were waiting for the consumer when
// it closed, and Close hands those batches back.
func TestParallelDecoderReadAfterClose(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, benchTrace(200_000)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	keptBatches.Drop()
	pd := NewParallelDecoder(bytes.NewReader(data), int64(len(data)), "bin", 0)
	done := make(chan error, 1)
	go func() {
		if _, err := pd.ReadBatch(); err != nil {
			done <- err
			return
		}
		for len(pd.ahead) < aheadBatches {
			time.Sleep(time.Millisecond)
		}
		pd.Close()
		if k := keptBatches.Len(); k < aheadBatches {
			done <- fmt.Errorf("%d batches kept after Close, want the %d that waited and more", k, aheadBatches)
			return
		}
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
