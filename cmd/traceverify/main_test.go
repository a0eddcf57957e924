package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/readmetest"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.txt from this build")

// fixture is the path of one shared command-test input (../testdata).
func fixture(format string) string {
	return filepath.Join("..", "testdata", "fixture."+format)
}

// checkGolden compares got with testdata/golden/<name>.txt, or writes
// it there under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/traceverify -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGolden pins the verification table on one fixture per input
// format and on a self-generated base.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"csv", []string{"-in", fixture("csv")}},
		{"bin", []string{"-in", fixture("bin"), "-informat", "bin"}},
		{"msrc", []string{"-in", fixture("msrc"), "-informat", "auto"}},
		{"spc", []string{"-in", fixture("spc"), "-informat", "spc", "-period", "1ms"}},
		{"generated", []string{"-workload", "ikki", "-ops", "2000", "-frac", "0.2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			if err := run(tc.args, &stdout, io.Discard); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, stdout.Bytes())
		})
	}
}

// TestInputErrors: a trace file is validated the way tracestat and
// tracereplay validate theirs, and a refused one prints no table.
func TestInputErrors(t *testing.T) {
	dir := t.TempDir()
	for in, want := range map[string]string{
		"": "input: trace: empty trace",
		"2.000,0,100,8,R,0,0\n1.000,0,200,8,R,0,0\n": "input: trace: requests not sorted by arrival (index 1)",
	} {
		path := filepath.Join(dir, "in.csv")
		if err := os.WriteFile(path, []byte(in), 0o666); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		if err := run([]string{"-in", path}, &stdout, io.Discard); err == nil || err.Error() != want {
			t.Errorf("input %q: got %v, want %q", in, err, want)
		}
		if stdout.Len() != 0 {
			t.Errorf("input %q: refused trace printed:\n%s", in, stdout.String())
		}
	}
}

// TestFormatFlagFromTable: -informat's help lists exactly the codec
// table's input formats.
func TestFormatFlagFromTable(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(stderr.String(), trace.Usage(trace.Input)) {
		t.Fatalf("help lacks %q:\n%s", trace.Usage(trace.Input), stderr.String())
	}
}

// TestReadmeBlocks holds the README's flags block for traceverify to what
// -h prints.
func TestReadmeBlocks(t *testing.T) {
	readmetest.CheckFlags(t, "traceverify", func() string {
		var stderr bytes.Buffer
		run([]string{"-h"}, io.Discard, &stderr)
		return stderr.String()
	}, *updateGolden)
}
