package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/workload"
)

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
		if err := run([]string{"-in", path, "-informat", "auto", "-device", name}, nil, &out); err != nil {
			t.Errorf("-device %s: %v", name, err)
		}
	}
	err := run([]string{"-in", path, "-informat", "bin", "-device", "floppy"}, nil, &bytes.Buffer{})
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
		if err := run([]string{"-informat", "auto", "-device", "hdd", "-mode", mode}, bytes.NewReader(raw), &out); err != nil {
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
	err = run([]string{"-informat", "auto", "-mode", "warp"}, bytes.NewReader(raw), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("-mode warp: %v, want an unknown-mode error", err)
	}
}
