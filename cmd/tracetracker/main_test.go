package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/readmetest"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite README.md's generated blocks from this build")

// genInput synthesizes a workload family's application, runs it on the
// OLD device (the construction tracegen uses) and writes the trace to
// dir in the given format. It returns the path and the trace as the
// CLI will decode it — csv quantizes timestamps, so the reference must
// start from the file, not from the generator's output.
func genInput(t *testing.T, dir, family, format string, tsdevKnown bool) (string, *trace.Trace) {
	t.Helper()
	p, ok := workload.Lookup(family)
	if !ok {
		t.Fatalf("unknown workload family %q", family)
	}
	app := workload.Generate(p, workload.GenOptions{Ops: 5000, Seed: workload.TraceSeed(family, 0)})
	tr := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	tr.Name, tr.Workload, tr.Set, tr.TsdevKnown = family+"-00", family, p.Set, tsdevKnown
	if !tsdevKnown {
		for i := range tr.Requests {
			tr.Requests[i].Latency = 0
		}
	}
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(format, &buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeTrace(enc, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, family+"."+format)
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	old, err := trace.ReadFormat(format, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return path, old
}

// reference computes what the CLI must print for old: the sequential
// specification (core.Reconstruct or the baseline functions) encoded
// whole by trace.EncodeTrace.
func reference(t *testing.T, old *trace.Trace, method, devName, outformat, fioDevice string) []byte {
	t.Helper()
	mk, err := engine.DeviceFactory(devName)
	if err != nil {
		t.Fatal(err)
	}
	var result *trace.Trace
	switch method {
	case "tracetracker", "dynamic":
		result, _, err = core.Reconstruct(old, mk(), core.Options{SkipPostProcess: method == "dynamic"})
		if err != nil {
			t.Fatal(err)
		}
	case "fixed-th":
		result = baseline.FixedTh(old, mk(), baseline.DefaultFixedThreshold)
	case "revision":
		result = baseline.Revision(old, mk())
	case "acceleration":
		result = baseline.Acceleration(old, baseline.DefaultAccelerationFactor)
	default:
		t.Fatalf("no reference for method %q", method)
	}
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(outformat, &buf, fioDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeTrace(enc, result); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCLIIdentity drives the command the way main does — run(args,
// stdin, stdout, stderr) — over a covering subset of method × device ×
// output format × input source × output sink, and asserts the bytes
// equal the sequential reference at -parallel 1 and 4. It is the
// CLI-level identity lock: whatever front end builds the JobSpec, the
// one job path computes core.Reconstruct's bytes.
func TestCLIIdentity(t *testing.T) {
	testCLIIdentity(t, 1, nil)
}

// TestCLIIdentityReuse runs TestCLIIdentity's table twice, shuffled, in
// one process, whose decodes all borrow from the same kept read buffers
// and request batches — as tracetrackerd's jobs do: a buffer kept from
// one run must carry nothing into the next.
func TestCLIIdentityReuse(t *testing.T) {
	testCLIIdentity(t, 2, rand.New(rand.NewSource(7)))
}

// testCLIIdentity runs the identity table rounds times, in an order
// shuffle permutes (table order when nil).
func testCLIIdentity(t *testing.T, rounds int, shuffle *rand.Rand) {
	dir := t.TempDir()
	spoolDir := t.TempDir()
	t.Setenv("TMPDIR", spoolDir) // where the CLI spools stdin
	type input struct {
		path string
		old  *trace.Trace
	}
	inputs := map[string]input{}
	for name, in := range map[string]struct {
		family, format string
		known          bool
	}{
		"known-bin":   {"MSNFS", "bin", true},
		"known-csv":   {"MSNFS", "csv", true},
		"unknown-csv": {"webmail", "csv", false}, // inference path: the fit pass re-reads the input
	} {
		path, old := genInput(t, dir, in.family, in.format, in.known)
		inputs[name] = input{path, old}
	}

	cases := []struct {
		input, informat   string
		method, device    string
		outformat         string
		fromStdin, toFile bool
	}{
		// Engine methods × every target × every output format.
		{"known-bin", "bin", "tracetracker", "array", "csv", false, true},
		{"known-bin", "bin", "tracetracker", "hdd", "bin", false, true},
		{"known-bin", "auto", "tracetracker", "ftl", "blktrace", false, true},
		{"known-bin", "bin", "tracetracker", "host", "fio", false, true},
		{"known-csv", "csv", "dynamic", "new", "bin", false, true},
		{"known-csv", "auto", "dynamic", "old", "csv", false, false},
		{"known-bin", "bin", "dynamic", "ftl", "fio", false, false},
		{"known-bin", "bin", "dynamic", "host", "blktrace", false, true},
		// Inference path, from a file and from the stdin spool.
		{"unknown-csv", "csv", "tracetracker", "array", "csv", false, true},
		{"unknown-csv", "csv", "tracetracker", "array", "csv", true, false},
		{"unknown-csv", "auto", "tracetracker", "hdd", "bin", true, true},
		// stdin → stdout, the shape of tracegen | tracetracker | tracestat.
		{"known-csv", "csv", "tracetracker", "array", "csv", true, false},
		{"known-bin", "auto", "tracetracker", "ftl", "bin", true, false},
		{"known-bin", "bin", "tracetracker", "host", "blktrace", true, true},
		// The baselines run through the same sink.
		{"known-bin", "bin", "fixed-th", "array", "csv", false, true},
		{"known-csv", "csv", "fixed-th", "hdd", "fio", true, false},
		{"known-bin", "bin", "revision", "array", "bin", true, true},
		{"known-csv", "csv", "revision", "ftl", "blktrace", false, false},
		{"known-bin", "bin", "acceleration", "array", "csv", false, false},
		{"known-csv", "auto", "acceleration", "array", "fio", false, true},
	}
	const fioDevice = "/dev/test0"
	var order []int
	for round := 0; round < rounds; round++ {
		perm := make([]int, len(cases))
		for i := range perm {
			perm[i] = i
		}
		if shuffle != nil {
			shuffle.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		order = append(order, perm...)
	}
	for _, i := range order {
		tc := cases[i]
		name := strings.Join([]string{tc.input, tc.informat, tc.method, tc.device, tc.outformat}, "/")
		if tc.fromStdin {
			name += "/stdin"
		}
		if tc.toFile {
			name += "/file"
		}
		t.Run(name, func(t *testing.T) {
			in := inputs[tc.input]
			want := reference(t, in.old, tc.method, tc.device, tc.outformat, fioDevice)
			raw, err := os.ReadFile(in.path)
			if err != nil {
				t.Fatal(err)
			}
			for _, parallel := range []string{"1", "4"} {
				args := []string{"-informat", tc.informat, "-method", tc.method, "-device", tc.device,
					"-outformat", tc.outformat, "-fio-device", fioDevice, "-parallel", parallel}
				var stdin io.Reader = strings.NewReader("")
				if tc.fromStdin {
					stdin = bytes.NewReader(raw)
				} else {
					args = append(args, "-in", in.path)
				}
				outPath := ""
				if tc.toFile {
					outPath = filepath.Join(t.TempDir(), "out")
					args = append(args, "-out", outPath)
				}
				var stdout, stderr bytes.Buffer
				if err := run(args, stdin, &stdout, &stderr); err != nil {
					t.Fatalf("-parallel %s: %v", parallel, err)
				}
				got := stdout.Bytes()
				if tc.toFile {
					if stdout.Len() != 0 {
						t.Fatalf("-out given but %d bytes went to stdout", stdout.Len())
					}
					var err error
					if got, err = os.ReadFile(outPath); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("-parallel %s: output (%d bytes) diverges from the sequential reference (%d bytes)",
						parallel, len(got), len(want))
				}
				// fio output comes with its job file on stderr, naming
				// the iolog (-out) and the replay device; no other
				// format writes to stderr without -report.
				if tc.outformat == "fio" {
					for _, line := range []string{"[replay]", "filename=" + fioDevice, "read_iolog=" + outPath + "\n"} {
						if !strings.Contains(stderr.String(), line) {
							t.Fatalf("fio job file on stderr lacks %q:\n%s", line, stderr.String())
						}
					}
				} else if stderr.Len() != 0 {
					t.Fatalf("unexpected stderr output: %s", stderr.String())
				}
			}
		})
	}

	// The stdin spool is removed on the way out.
	if left, _ := filepath.Glob(filepath.Join(spoolDir, "tracetracker-stdin-*")); len(left) != 0 {
		t.Fatalf("stdin spool files left behind: %v", left)
	}
}

// TestCLIFIFO: -in a pipe writes the regular file's bytes, with the
// format given and with auto, on the inference path that reads its
// input twice: the pipe is spooled once, as it is sniffed.
func TestCLIFIFO(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	file, _ := genInput(t, t.TempDir(), "webmail", "csv", false)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := run([]string{"-in", file}, nil, &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"csv", "auto"} {
		if got := runFIFO(t, raw, "-informat", format); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("-in fifo -informat %s: %d bytes, want the regular file's %d", format, len(got), want.Len())
		}
	}
	if left, _ := filepath.Glob(filepath.Join(os.Getenv("TMPDIR"), "tracetracker-stdin-*")); len(left) != 0 {
		t.Fatalf("spool files left behind: %v", left)
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

// TestCLIReport checks -report prints the one report table — the rows
// of the daemon's job report — to stderr and leaves the output alone,
// and that the baseline knobs reach the spec.
func TestCLIReport(t *testing.T) {
	dir := t.TempDir()
	path, old := genInput(t, dir, "MSNFS", "bin", true)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", path, "-informat", "bin", "-device", "ftl", "-report"}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), reference(t, old, "tracetracker", "ftl", "csv", "")) {
		t.Fatal("-report changed the output bytes")
	}
	for _, row := range []string{"reconstruction report", "requests", "5000", "shards", "workers", "idle instructions", "total idle", "async instructions", "host_writes"} {
		if !strings.Contains(stderr.String(), row) {
			t.Fatalf("report lacks %q:\n%s", row, stderr.String())
		}
	}

	stdout.Reset()
	if err := run([]string{"-in", path, "-informat", "bin", "-method", "fixed-th", "-threshold", "2ms"}, nil, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	mk, _ := engine.DeviceFactory("new")
	var want bytes.Buffer
	if err := trace.WriteCSV(&want, baseline.FixedTh(old, mk(), 2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatal("-threshold 2ms did not reach the fixed-th baseline")
	}
	stdout.Reset()
	if err := run([]string{"-in", path, "-informat", "bin", "-method", "acceleration", "-factor", "7"}, nil, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	want.Reset()
	if err := trace.WriteCSV(&want, baseline.Acceleration(old, 7)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatal("-factor 7 did not reach the acceleration baseline")
	}
}

// TestCLINeverClobbersOutput is the CLI-level twin of the engine's
// TestRunJobNeverClobbersOutput: whatever makes a run fail — a flag the
// spec validation rejects, an input that cannot be opened, decoded or
// validated — an existing -out file keeps its bytes and no partial
// file is left beside it.
func TestCLINeverClobbersOutput(t *testing.T) {
	dir := t.TempDir()
	good, _ := genInput(t, dir, "MSNFS", "csv", true)
	empty := filepath.Join(dir, "empty.csv") // decodes, fails Validate: no requests
	if err := os.WriteFile(empty, nil, 0o666); err != nil {
		t.Fatal(err)
	}
	garbled := filepath.Join(dir, "garbled.csv") // fails mid-decode, after output has started
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(garbled, append(raw, "not,a,record\n"...), 0o666); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "keep.csv")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown outformat", []string{"-in", good, "-outformat", "bogus"}},
		{"unknown informat", []string{"-in", good, "-informat", "bogus"}},
		{"unknown method", []string{"-in", good, "-method", "bogus"}},
		{"unknown device", []string{"-in", good, "-device", "floppy"}},
		{"negative factor", []string{"-in", good, "-method", "acceleration", "-factor", "-3"}},
		{"NaN factor", []string{"-in", good, "-method", "acceleration", "-factor", "NaN"}},
		{"negative threshold", []string{"-in", good, "-method", "fixed-th", "-threshold", "-1ms"}},
		{"fio device with a newline", []string{"-in", good, "-outformat", "fio", "-fio-device", "/dev/sda\nrw=write"}},
		{"unreadable input", []string{"-in", filepath.Join(dir, "missing.csv")}},
		{"unsniffable input", []string{"-in", empty, "-informat", "auto"}},
		{"empty input", []string{"-in", empty}},
		{"empty input, baseline", []string{"-in", empty, "-method", "revision"}},
		{"garbled input", []string{"-in", garbled}},
		{"garbled input, baseline", []string{"-in", garbled, "-method", "acceleration"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(outPath, []byte("precious"), 0o666); err != nil {
				t.Fatal(err)
			}
			var stdout bytes.Buffer
			if err := run(append(tc.args, "-out", outPath), strings.NewReader(""), &stdout, io.Discard); err == nil {
				t.Fatal("run succeeded")
			}
			if got, _ := os.ReadFile(outPath); string(got) != "precious" {
				t.Fatalf("failed run replaced the existing output: %q", got)
			}
			if left, _ := filepath.Glob(outPath + ".partial-*"); len(left) != 0 {
				t.Fatalf("failed run left partial files: %v", left)
			}
			if stdout.Len() != 0 {
				t.Fatalf("failed run with -out wrote %d bytes to stdout", stdout.Len())
			}
		})
	}
}

// TestFormatFlagsFromTable: -informat and -outformat list exactly the
// codec table's input and output formats — the sets a job accepts — and
// -device names every registry target and alias.
func TestFormatFlagsFromTable(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, nil, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	want := []string{trace.Usage(trace.Input), trace.Usage(trace.Output)}
	for _, d := range engine.Devices() {
		for _, name := range append([]string{d.Name}, d.Aliases...) {
			want = append(want, strconv.Quote(name))
		}
	}
	for _, usage := range want {
		if !strings.Contains(stderr.String(), usage) {
			t.Fatalf("help lacks %q:\n%s", usage, stderr.String())
		}
	}
}

// TestReadmeBlocks holds the README's flags block for tracetracker to what
// -h prints.
func TestReadmeBlocks(t *testing.T) {
	readmetest.CheckFlags(t, "tracetracker", func() string {
		var stderr bytes.Buffer
		run([]string{"-h"}, nil, io.Discard, &stderr)
		return stderr.String()
	}, *updateGolden)
}
