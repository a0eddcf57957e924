package trace

// Golden-file locks for the codec layer: the encoders' byte output
// and the decoders' interpretation of committed fixture files must
// never drift. The hand-rolled formatters in stream.go replaced
// fmt-based rendering; these fixtures are the proof the rewrite (and
// any future one) stays byte-identical. Regenerate deliberately with:
//
//	go test ./internal/trace -run TestCodecGolden -update-golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite codec golden files")

// goldenTrace covers the field shapes that exercise the formatters:
// both ops, async on and off, zero and sub-microsecond latencies,
// fractional microsecond arrivals, multi-digit devices, huge LBAs,
// and metadata with every field set.
func goldenTrace() *Trace {
	return &Trace{
		Name: "golden-000", Workload: "golden", Set: "FIU", TsdevKnown: true,
		Requests: []Request{
			{Arrival: 0, Device: 0, LBA: 0, Sectors: 1, Op: Read},
			{Arrival: 1500 * time.Nanosecond, Device: 1, LBA: 8, Sectors: 8, Op: Write, Latency: 90 * time.Microsecond, Async: true},
			{Arrival: 2 * time.Millisecond, Device: 10, LBA: 1<<40 + 7, Sectors: 2048, Op: Read, Latency: 333 * time.Nanosecond},
			{Arrival: 2*time.Millisecond + 1, Device: 10, LBA: 1<<40 + 2055, Sectors: 64, Op: Read, Latency: 1250 * time.Microsecond},
			{Arrival: 5 * time.Second, Device: 3, LBA: 4096, Sectors: 16, Op: Write},
		},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name)
}

// TestCodecGoldenEncode locks every output format's bytes against the
// committed fixtures.
func TestCodecGoldenEncode(t *testing.T) {
	tr := goldenTrace()
	cases := []struct {
		file   string
		render func() ([]byte, error)
	}{
		{"sample.csv", func() ([]byte, error) {
			var b bytes.Buffer
			err := WriteCSV(&b, tr)
			return b.Bytes(), err
		}},
		{"sample.bin", func() ([]byte, error) {
			var b bytes.Buffer
			err := WriteBinary(&b, tr)
			return b.Bytes(), err
		}},
		{"sample.blktrace", func() ([]byte, error) {
			var b bytes.Buffer
			err := EncodeTrace(NewBlktraceEncoder(&b), tr)
			return b.Bytes(), err
		}},
		{"sample.fio", func() ([]byte, error) {
			var b bytes.Buffer
			err := EncodeTrace(NewFIOEncoder(&b, "/dev/golden"), tr)
			return b.Bytes(), err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			got, err := tc.render()
			if err != nil {
				t.Fatal(err)
			}
			path := goldenPath(tc.file)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o666); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: encoder output diverges from golden file (%d vs %d bytes)", tc.file, len(got), len(want))
			}
		})
	}
}

// TestCodecGoldenDecode locks the decoders' interpretation of the
// committed input-format fixtures: the bytes on disk must round-trip
// to exactly the golden trace.
func TestCodecGoldenDecode(t *testing.T) {
	want := goldenTrace()
	for _, tc := range []struct {
		file, format string
	}{
		{"sample.csv", "csv"},
		{"sample.bin", "bin"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(goldenPath(tc.file))
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			got, err := ReadFormat(tc.format, bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if got.Meta() != want.Meta() {
				t.Fatalf("meta: got %+v want %+v", got.Meta(), want.Meta())
			}
			// CSV stores timestamps at microsecond precision (3 decimal
			// places), so sub-nanosecond drift is impossible but coarser
			// values must match exactly after quantization.
			quant := want.Clone()
			if tc.format == "csv" {
				for i := range quant.Requests {
					quant.Requests[i].Arrival = quantizeCSV(quant.Requests[i].Arrival)
					quant.Requests[i].Latency = quantizeCSV(quant.Requests[i].Latency)
				}
			}
			if !reflect.DeepEqual(got.Requests, quant.Requests) {
				t.Fatalf("decoded requests diverge:\n got %+v\nwant %+v", got.Requests, quant.Requests)
			}
		})
	}
}

// quantizeCSV reproduces the CSV round trip's nanosecond quantization:
// %.3f microseconds parsed back to a Duration.
func quantizeCSV(d time.Duration) time.Duration {
	b := strconv.AppendFloat(nil, micros(d), 'f', 3, 64)
	f, err := parseFloatBytes(b)
	if err != nil {
		panic(err)
	}
	return fromMicros(f)
}
