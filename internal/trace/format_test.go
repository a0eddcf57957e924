package trace

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestFormatTable holds every entry point that names formats to the
// codec table: the role lists and the help text derived from them,
// NewDecoder, NewEncoder, ReorderWindow, WriteFormat and DetectFormat accept
// or report exactly the table's names. The help strings are pinned
// verbatim, so a table edit that changes what a command prints shows
// here.
func TestFormatTable(t *testing.T) {
	for _, tc := range []struct {
		role  Role
		names []string
		usage string
	}{
		{Input, []string{"csv", "bin", "msrc", "spc"}, `input format: "csv", "bin", "msrc", "spc", or "auto" (content sniffing)`},
		{Output, []string{"csv", "bin", "blktrace", "fio"}, `output format: "csv", "bin", "blktrace", or "fio"`},
		{Generated, []string{"csv", "bin"}, `output format: "csv" or "bin"`},
	} {
		if got := Formats(tc.role); !reflect.DeepEqual(got, tc.names) {
			t.Errorf("Formats(%d) = %q, want %q", tc.role, got, tc.names)
		}
		if got := Usage(tc.role); got != tc.usage {
			t.Errorf("Usage(%d) = %s, want %s", tc.role, got, tc.usage)
		}
	}

	in, out, gen := Formats(Input), Formats(Output), Formats(Generated)
	names := append([]string{"auto", "", "bogus", "CSV"}, out...)
	names = append(names, in...)
	for _, name := range names {
		_, derr := NewDecoder(name, strings.NewReader(""))
		if isIn := slices.Contains(in, name); (derr == nil) != isIn {
			t.Errorf("NewDecoder(%q): err %v, table input %v", name, derr, isIn)
		}
		_, eerr := NewEncoder(name, &bytes.Buffer{}, "/dev/x")
		if isOut := slices.Contains(out, name); (eerr == nil) != isOut {
			t.Errorf("NewEncoder(%q): err %v, table output %v", name, eerr, isOut)
		}
		if got, want := ReorderWindow(name) > 0, name == "msrc" || name == "spc"; got != want {
			t.Errorf("ReorderWindow(%q) = %d", name, ReorderWindow(name))
		}
		var buf bytes.Buffer
		werr := WriteFormat(name, &buf, streamSample())
		if isGen := slices.Contains(gen, name); (werr == nil) != isGen {
			t.Errorf("WriteFormat(%q): err %v, table generated %v", name, werr, isGen)
		} else if isGen {
			got, err := ReadFormat(name, &buf)
			if err != nil || got.Meta() != streamSample().Meta() || !reflect.DeepEqual(got.Requests, streamSample().Requests) {
				t.Errorf("WriteFormat(%q) does not read back: %v", name, err)
			}
		}
	}

	// Every input format is sniffable, and sniffs as itself.
	var csvBuf, binBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, streamSample()); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&binBuf, streamSample()); err != nil {
		t.Fatal(err)
	}
	samples := map[string][]byte{"csv": csvBuf.Bytes(), "bin": binBuf.Bytes(),
		"msrc": []byte(msrcSample), "spc": []byte(spcSample)}
	if len(samples) != len(in) {
		t.Fatalf("samples cover %d formats, the table has %d inputs %q", len(samples), len(in), in)
	}
	for _, name := range in {
		if got, err := DetectFormat(samples[name]); err != nil || got != name {
			t.Errorf("DetectFormat(%s sample) = %q, %v", name, got, err)
		}
	}
}

// TestBinaryRefusesLongMeta: the header stores each metadata string
// behind a 16-bit length, so one longer than 65,535 bytes must fail the
// write — before a byte of it is written — instead of producing a file
// no decoder can read. 65,535 bytes still fit.
func TestBinaryRefusesLongMeta(t *testing.T) {
	for _, field := range []string{"name", "workload", "set"} {
		for _, n := range []int{1<<16 - 1, 1 << 16, 70_000} {
			tr := streamSample()
			s := strings.Repeat("x", n)
			switch field {
			case "name":
				tr.Name = s
			case "workload":
				tr.Workload = s
			case "set":
				tr.Set = s
			}
			fits := n < 1<<16
			var counted, streamed bytes.Buffer
			errCounted := WriteBinary(&counted, tr)
			errStreamed := EncodeTrace(NewBinaryEncoder(&streamed), tr)
			for form, err := range map[string]error{"WriteBinary": errCounted, "BinaryEncoder": errStreamed} {
				if fits && err != nil {
					t.Fatalf("%s %d-byte %s: %v", form, n, field, err)
				}
				if !fits && !errors.Is(err, errLongMeta) {
					t.Fatalf("%s %d-byte %s: err %v, want errLongMeta", form, n, field, err)
				}
			}
			if !fits {
				if counted.Len() != 0 || streamed.Len() != 0 {
					t.Fatalf("%d-byte %s: refused header still wrote %d+%d bytes", n, field, counted.Len(), streamed.Len())
				}
				continue
			}
			got, err := ReadFormat("bin", &counted)
			if err != nil || got.Meta() != tr.Meta() {
				t.Fatalf("%d-byte %s does not read back: %v", n, field, err)
			}
		}
	}
}

// FuzzTextBinRoundTrip is what lets a text trace be stored as bin: for
// every text input format in the table, text bytes that decode cleanly
// must come back from bin encode → bin decode as the same Requests and
// Meta, bit for bit — or the encoder must refuse the metadata with
// errLongMeta. The seeds include a csv header whose name is longer than
// the binary header can hold.
func FuzzTextBinRoundTrip(f *testing.F) {
	var csvBuf bytes.Buffer
	_ = WriteCSV(&csvBuf, streamSample())
	f.Add(csvBuf.Bytes())
	f.Add([]byte(msrcSample))
	f.Add([]byte(spcSample))
	f.Add([]byte("# tracetracker name=" + strings.Repeat("n", 70_000) + " workload=w set=S tsdev_known=false\n1.5,0,8,8,W,0,1\n"))
	f.Add([]byte("128166372003061629," + strings.Repeat("h", 1<<16) + ",0,Read,0,512,1\n"))
	f.Add([]byte("0.0004,7,1,1,r,1e3,0\n-3,0,0,1,w,0,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		for i := range codecs {
			c := &codecs[i]
			if !c.text || c.decode == nil {
				continue
			}
			want, meta, err := fuzzCollect(c.decode(source{br: newReadBuffer(bytes.NewReader(data))}))
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			enc := NewBinaryEncoder(&buf)
			err = enc.Begin(meta)
			for _, r := range want {
				if err != nil {
					break
				}
				err = enc.Write(r)
			}
			if err == nil {
				err = enc.Close()
			}
			if err != nil {
				if !errors.Is(err, errLongMeta) {
					t.Fatalf("%s: bin encode: %v", c.name, err)
				}
				continue
			}
			got, gotMeta, err := fuzzCollect(newSeq(t, "bin", buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: bin decode: %v", c.name, err)
			}
			if gotMeta != meta {
				t.Fatalf("%s: meta %+v came back as %+v", c.name, meta, gotMeta)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d requests came back as %d", c.name, len(want), len(got))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: request %d %+v came back as %+v", c.name, j, want[j], got[j])
				}
			}
		}
	})
}
