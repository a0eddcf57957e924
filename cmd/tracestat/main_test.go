package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
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
		t.Fatalf("%v (run `go test ./cmd/tracestat -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGolden pins tracestat's report on one fixture per input format,
// and on stdin: the summary, the inter-arrival quantiles, every group's
// shape and rise, the fitted model and its idle/async counts.
func TestGolden(t *testing.T) {
	csv, err := os.ReadFile(fixture("csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, golden string
		args         []string
		stdin        []byte
	}{
		{"csv", "csv", []string{"-in", fixture("csv")}, nil},
		{"bin", "bin", []string{"-in", fixture("bin"), "-informat", "auto"}, nil},
		{"msrc", "msrc", []string{"-in", fixture("msrc"), "-informat", "msrc"}, nil},
		{"spc", "spc", []string{"-in", fixture("spc"), "-informat", "spc"}, nil},
		{"stdin", "csv", nil, csv}, // tracegen | tracestat prints what -in prints
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(tc.args, bytes.NewReader(tc.stdin), &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if stderr.Len() != 0 {
				t.Fatalf("unexpected stderr: %s", stderr.String())
			}
			checkGolden(t, tc.golden, stdout.Bytes())
		})
	}
}

// TestFIFO: -in a pipe prints what -in the regular file prints, the
// second pass's idle and async counts included: the pipe is spooled
// once, as it is sniffed, and both passes read the spool.
func TestFIFO(t *testing.T) {
	raw, err := os.ReadFile(fixture("csv"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := run([]string{"-in", fixture("csv")}, nil, &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"csv", "auto"} {
		if got := runFIFO(t, raw, "-informat", format); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("-in fifo -informat %s printed:\n%s\nwant what -in file prints:\n%s", format, got, want.String())
		}
	}
}

// runFIFO runs the command with -in a FIFO, which a goroutine fills
// with data, and args, and returns its stdout. It fails the test if the
// command has not returned within 30 s: one that opens the FIFO a
// second time waits for a writer that is gone.
func runFIFO(t *testing.T, data []byte, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(data)
			f.Close()
		}
		wrote <- err
	}()
	var out bytes.Buffer
	ran := make(chan error, 1)
	go func() { ran <- run(append([]string{"-in", path}, args...), nil, &out, io.Discard) }()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("-in fifo %v: %v", args, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("-in fifo %v: no return after 30 s", args)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestInputErrors checks a trace the pipeline cannot take is refused
// with the input error trace.Validate names, and nothing is printed.
func TestInputErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"empty", "", "input: trace: empty trace"},
		{"unsorted", "2.000,0,100,8,R,0,0\n1.000,0,200,8,R,0,0\n",
			"input: trace: requests not sorted by arrival (index 1)"},
		{"zero size", "1.000,0,100,8,R,0,0\n2.000,0,200,0,R,0,0\n",
			"input: trace: request with zero sectors (index 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(nil, strings.NewReader(tc.in), &stdout, io.Discard)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("failed run printed:\n%s", stdout.String())
			}
		})
	}
}

// TestNoParallelFlag: the decode has no knob, so -parallel is an
// unknown flag.
func TestNoParallelFlag(t *testing.T) {
	err := run([]string{"-parallel", "2", "-in", fixture("csv")}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not defined: -parallel") {
		t.Fatalf("-parallel 2: %v, want an unknown-flag error", err)
	}
}

// displacedMSRC writes an msrc file whose last record belongs right
// after its first, further back than trace.ReorderWindow("msrc")
// reaches.
func displacedMSRC(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	const base = 128166372003061629
	n := trace.ReorderWindow("msrc") + 100
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "%d,hm,0,Read,%d,4096,100\n", base+10*int64(i), 4096*i)
	}
	fmt.Fprintf(&b, "%d,hm,0,Write,0,4096,100\n", base+5)
	path := filepath.Join(t.TempDir(), "displaced.msrc")
	if err := os.WriteFile(path, []byte(b.String()), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDisplacedBeyondWindow: tracestat reads a near-sorted corpus
// through the reorder window a job reads it through, so an msrc record
// displaced beyond trace.ReorderWindow("msrc") is refused with the
// ErrUnsorted, at the index, a job reports for the same file.
func TestDisplacedBeyondWindow(t *testing.T) {
	path := displacedMSRC(t)
	_, jobErr := engine.RunJobTo(engine.Config{}, engine.JobSpec{In: path, InFormat: "msrc"}, io.Discard)
	var stdout bytes.Buffer
	err := run([]string{"-in", path, "-informat", "msrc"}, nil, &stdout, io.Discard)
	if !errors.Is(err, trace.ErrUnsorted) || !errors.Is(jobErr, trace.ErrUnsorted) {
		t.Fatalf("tracestat: %v; job: %v; want ErrUnsorted from both", err, jobErr)
	}
	index := regexp.MustCompile(`\(index \d+\)`)
	if got, want := index.FindString(err.Error()), index.FindString(jobErr.Error()); got == "" || got != want {
		t.Fatalf("tracestat refuses at %q, the job at %q", got, want)
	}
	if stdout.Len() != 0 {
		t.Fatalf("refused input printed:\n%s", stdout.String())
	}
}

// TestFormatFlagFromTable: -informat's help lists exactly the codec
// table's input formats.
func TestFormatFlagFromTable(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, nil, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(stderr.String(), trace.Usage(trace.Input)) {
		t.Fatalf("help lacks %q:\n%s", trace.Usage(trace.Input), stderr.String())
	}
}

// TestReadmeBlocks holds the README's flags block for tracestat to what
// -h prints.
func TestReadmeBlocks(t *testing.T) {
	readmetest.CheckFlags(t, "tracestat", func() string {
		var stderr bytes.Buffer
		run([]string{"-h"}, nil, io.Discard, &stderr)
		return stderr.String()
	}, *updateGolden)
}
