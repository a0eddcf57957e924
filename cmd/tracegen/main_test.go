package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/readmetest"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/* from this build")

// TestGolden pins tracegen's bytes in both formats it writes, to stdout
// and to -out alike. -device takes the engine registry's names: a
// target's name writes what its alias does.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"msnfs-new.csv", []string{"-workload", "MSNFS", "-ops", "300", "-device", "new"}},
		{"webmail.bin", []string{"-workload", "webmail", "-ops", "300", "-format", "bin", "-index", "2"}},
		{"msnfs-new.csv", []string{"-workload", "MSNFS", "-ops", "300", "-device", "array"}},
		{"webmail.bin", []string{"-workload", "webmail", "-ops", "300", "-format", "bin", "-index", "2", "-device", "hdd"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout bytes.Buffer
			if err := run(tc.args, &stdout, io.Discard); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "out")
			if err := run(append(tc.args, "-out", out), io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(written, stdout.Bytes()) {
				t.Fatal("-out wrote other bytes than stdout")
			}
			path := filepath.Join("testdata", "golden", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/tracegen -update` to create it)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("output (%d bytes) drifted from %s (%d bytes)", stdout.Len(), path, len(want))
			}
		})
	}
}

// TestFormatFlagFromTable: -format's help lists exactly the formats the
// codec table writes whole, and any other output format is refused.
func TestFormatFlagFromTable(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(stderr.String(), trace.Usage(trace.Generated)) {
		t.Fatalf("help lacks %q:\n%s", trace.Usage(trace.Generated), stderr.String())
	}
	for _, format := range trace.Formats(trace.Output) {
		err := run([]string{"-workload", "ikki", "-ops", "10", "-format", format}, io.Discard, io.Discard)
		if want := slices.Contains(trace.Formats(trace.Generated), format); (err == nil) != want {
			t.Errorf("-format %s: %v", format, err)
		}
	}
}

// TestReadmeBlocks holds the README's flags block for tracegen to what
// -h prints.
func TestReadmeBlocks(t *testing.T) {
	readmetest.CheckFlags(t, "tracegen", func() string {
		var stderr bytes.Buffer
		run([]string{"-h"}, io.Discard, &stderr)
		return stderr.String()
	}, *updateGolden)
}
