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
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/readmetest"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite README.md's generated blocks from this build")

// writeMSNFS writes a 2k-request MSNFS trace (the construction tracegen
// uses) as a bin file and returns its path.
func writeMSNFS(t *testing.T) string {
	t.Helper()
	p, ok := workload.Lookup("MSNFS")
	if !ok {
		t.Fatal("unknown workload family MSNFS")
	}
	app := workload.Generate(p, workload.GenOptions{Ops: 2000, Seed: workload.TraceSeed("MSNFS", 0)})
	tr := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	tr.Name = "MSNFS-00"
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "msnfs.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIDeviceNames holds -device to the engine's registry: every
// canonical name and alias every other tool accepts, plus the local
// "null", and nothing else.
func TestCLIDeviceNames(t *testing.T) {
	path := writeMSNFS(t)
	names := []string{"null"}
	for _, d := range engine.Devices() {
		names = append(names, d.Name)
		names = append(names, d.Aliases...)
	}
	if len(names) < 9 { // null + array/new, ssd, hdd/old, ftl, host/hoststack
		t.Fatalf("registry lists only %v", names)
	}
	for _, name := range names {
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-informat", "auto", "-device", name}, nil, &out, io.Discard); err != nil {
			t.Errorf("-device %s: %v", name, err)
		}
	}
	err := run([]string{"-in", path, "-informat", "bin", "-device", "floppy"}, nil, &bytes.Buffer{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "floppy") {
		t.Fatalf("-device floppy: %v, want an unknown-device error", err)
	}
}

// TestCLIModes replays the trace from stdin in both modes and checks the
// report accounts for every request.
func TestCLIModes(t *testing.T) {
	raw, err := os.ReadFile(writeMSNFS(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"paced", "closed"} {
		var out bytes.Buffer
		if err := run([]string{"-informat", "auto", "-device", "hdd", "-mode", mode}, bytes.NewReader(raw), &out, io.Discard); err != nil {
			t.Fatalf("-mode %s: %v", mode, err)
		}
		for _, want := range []string{"MSNFS-00 (2000 requests)", mode + " mode", "mean latency"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("-mode %s: report lacks %q:\n%s", mode, want, out.String())
			}
		}
		// reads + writes is the replayed request count.
		counts := map[string]int{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) == 2 {
				counts[f[0]], _ = strconv.Atoi(f[1]) // non-count rows read 0 and are not consulted
			}
		}
		reads, writes := counts["reads"], counts["writes"]
		if reads+writes != 2000 || reads == 0 || writes == 0 {
			t.Fatalf("-mode %s: %d reads + %d writes, want 2000 requests of both kinds", mode, reads, writes)
		}
	}
	err = run([]string{"-informat", "auto", "-mode", "warp"}, bytes.NewReader(raw), &bytes.Buffer{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("-mode warp: %v, want an unknown-mode error", err)
	}
}

// TestInputRules: tracereplay reads its input as a job does — the
// near-sorted corpora through their format's reorder window — and
// refuses what trace.Validate refuses before replaying it. An msrc
// record displaced beyond trace.ReorderWindow("msrc") is refused with
// the ErrUnsorted, at the index, a job reports for the same file.
func TestInputRules(t *testing.T) {
	var b strings.Builder
	const base = 128166372003061629
	n := trace.ReorderWindow("msrc") + 100
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "%d,hm,0,Read,%d,4096,100\n", base+10*int64(i), 4096*i)
	}
	fmt.Fprintf(&b, "%d,hm,0,Write,0,4096,100\n", base+5) // belongs second
	path := filepath.Join(t.TempDir(), "displaced.msrc")
	if err := os.WriteFile(path, []byte(b.String()), 0o666); err != nil {
		t.Fatal(err)
	}
	_, jobErr := engine.RunJobTo(engine.Config{}, engine.JobSpec{In: path, InFormat: "msrc"}, io.Discard)
	var out bytes.Buffer
	err := run([]string{"-in", path, "-informat", "msrc", "-device", "null"}, nil, &out, io.Discard)
	if !errors.Is(err, trace.ErrUnsorted) || !errors.Is(jobErr, trace.ErrUnsorted) {
		t.Fatalf("tracereplay: %v; job: %v; want ErrUnsorted from both", err, jobErr)
	}
	index := regexp.MustCompile(`\(index \d+\)`)
	if got, want := index.FindString(err.Error()), index.FindString(jobErr.Error()); got == "" || got != want {
		t.Fatalf("tracereplay refuses at %q, the job at %q", got, want)
	}

	for in, want := range map[string]string{
		"": "input: trace: empty trace",
		"2.000,0,100,8,R,0,0\n1.000,0,200,8,R,0,0\n": "input: trace: requests not sorted by arrival (index 1)",
		"1.000,0,100,0,R,0,0\n":                      "input: trace: request with zero sectors (index 0)",
	} {
		if err := run(nil, strings.NewReader(in), &out, io.Discard); err == nil || err.Error() != want {
			t.Errorf("input %q: got %v, want %q", in, err, want)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("refused inputs printed:\n%s", out.String())
	}
}

// TestFormatFlagFromTable: -informat's help lists exactly the codec
// table's input formats, and -device names every registry target and
// alias, and "null".
func TestFormatFlagFromTable(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, nil, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	want := []string{trace.Usage(trace.Input), `"null"`}
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

// TestReadmeBlocks holds the README's flags block for tracereplay to what
// -h prints.
func TestReadmeBlocks(t *testing.T) {
	readmetest.CheckFlags(t, "tracereplay", func() string {
		var stderr bytes.Buffer
		run([]string{"-h"}, nil, io.Discard, &stderr)
		return stderr.String()
	}, *updateGolden)
}
