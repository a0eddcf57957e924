package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/readmetest"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite README.md's generated blocks from this build")

// writeSample writes a small csv trace and returns its path and bytes.
func writeSample(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	tr := &trace.Trace{
		Name: "cli-sample", Workload: "w", Set: "FIU", TsdevKnown: true,
		Requests: []trace.Request{
			{Arrival: 0, LBA: 10, Sectors: 8, Op: trace.Read, Latency: 100 * time.Microsecond},
			{Arrival: time.Millisecond, LBA: 18, Sectors: 8, Op: trace.Write, Latency: 150 * time.Microsecond},
		},
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestAddLsInfoGetGC drives the whole CLI surface against one store.
func TestAddLsInfoGetGC(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "store")
	path, raw := writeSample(t, dir)

	var out bytes.Buffer
	if err := run([]string{"-data", data, "add", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "added ") {
		t.Fatalf("add output: %q", out.String())
	}
	digest := strings.Fields(out.String())[1]

	// Re-adding dedups.
	out.Reset()
	if err := run([]string{"-data", data, "add", "-format", "csv", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "exists ") {
		t.Fatalf("dedup output: %q", out.String())
	}

	out.Reset()
	if err := run([]string{"-data", data, "ls"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), digest[:12]) || !strings.Contains(out.String(), "cli-sample") {
		t.Fatalf("ls output: %q", out.String())
	}

	out.Reset()
	if err := run([]string{"-data", data, "info", digest[:8]}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), digest) || !strings.Contains(out.String(), `"requests": 2`) {
		t.Fatalf("info output: %q", out.String())
	}

	// get to stdout and to a file, both byte-identical to the upload.
	out.Reset()
	if err := run([]string{"-data", data, "get", digest}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatal("get bytes diverge")
	}
	outPath := filepath.Join(dir, "fetched.csv")
	if err := run([]string{"-data", data, "get", "-o", outPath, digest[:8]}, &out); err != nil {
		t.Fatal(err)
	}
	fetched, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, raw) {
		t.Fatal("get -o bytes diverge")
	}

	// gc on a clean store removes nothing.
	out.Reset()
	if err := run([]string{"-data", data, "gc"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "removed 0 staging files, 0 orphaned results, 0 broken objects") {
		t.Fatalf("gc output: %q", out.String())
	}

	// The trace is still there afterwards.
	out.Reset()
	if err := run([]string{"-data", data, "info", digest}, &out); err != nil {
		t.Fatal(err)
	}
}

// TestAddFillsFittedModel: a corpus preloaded offline never fits in a
// job — add runs the same ingest as an upload, so a Tsdev-unknown trace
// lands with its model, and info shows it (a Tsdev-known one has none).
func TestAddFillsFittedModel(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "store")
	p, ok := workload.Lookup("webmail")
	if !ok {
		t.Fatal("webmail profile missing")
	}
	tr := workload.Generate(p, workload.GenOptions{Ops: 2000, Seed: 1}).Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	tr.TsdevKnown = false
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "webmail.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	known, _ := writeSample(t, dir)

	for path, wantModel := range map[string]bool{path: true, known: false} {
		var out bytes.Buffer
		if err := run([]string{"-data", data, "add", path}, &out); err != nil {
			t.Fatal(err)
		}
		digest := strings.Fields(out.String())[1]
		out.Reset()
		if err := run([]string{"-data", data, "info", digest}, &out); err != nil {
			t.Fatal(err)
		}
		var info struct{ Model *infer.Model }
		if err := json.Unmarshal(out.Bytes(), &info); err != nil || (info.Model != nil) != wantModel {
			t.Fatalf("info %s: model %+v (%v), want one: %v\n%s", path, info.Model, err, wantModel, out.String())
		}
	}
}

// TestCLIErrors covers the argument failure surface.
func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "store")
	var out bytes.Buffer
	for name, args := range map[string][]string{
		"no-data":        {"ls"},
		"no-subcommand":  {"-data", data},
		"unknown":        {"-data", data, "bogus"},
		"add-no-files":   {"-data", data, "add"},
		"info-no-digest": {"-data", data, "info"},
		"info-unknown":   {"-data", data, "info", "ffff"},
		"get-no-digest":  {"-data", data, "get"},
		"add-missing":    {"-data", data, "add", filepath.Join(dir, "nope.csv")},
		// The decode has no knob: an ingestible file with -parallel fails.
		"add-parallel": {"-data", data, "add", "-parallel", "2", filepath.Join("..", "testdata", "fixture.csv")},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestHelpExitsZero runs the command itself, as this test binary with
// TRACECORPUS_MAIN_ARGS set: -h, before or after a subcommand, prints
// usage and exits 0, since a request for help is no failure.
func TestHelpExitsZero(t *testing.T) {
	if args, ok := os.LookupEnv("TRACECORPUS_MAIN_ARGS"); ok {
		os.Args = append([]string{"tracecorpus"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	data := t.TempDir()
	for _, args := range []string{"-h", "-data " + data + " add -h", "-data " + data + " get -h"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHelpExitsZero$")
		cmd.Env = append(os.Environ(), "TRACECORPUS_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(strings.ToLower(string(out)), "usage") {
			t.Fatalf("tracecorpus %s: %v\n%s", args, err, out)
		}
		if strings.Contains(string(out), "help requested") {
			t.Fatalf("tracecorpus %s reports the help request as an error:\n%s", args, out)
		}
	}
}

// TestFormatFlagFromTable: add's -format lists exactly the codec
// table's input formats.
func TestFormatFlagFromTable(t *testing.T) {
	if help := usage(t, "add"); !strings.Contains(help, trace.Usage(trace.Input)) {
		t.Fatalf("help lacks %q:\n%s", trace.Usage(trace.Input), help)
	}
}

// TestReadmeBlocks holds the README's flags block for tracecorpus to
// what -h prints for the command and for its add and get subcommands.
func TestReadmeBlocks(t *testing.T) {
	readmetest.CheckFlags(t, "tracecorpus", func() string {
		return usage(t) + "\n" + usage(t, "add") + "\n" + usage(t, "get")
	}, *updateGolden)
}

// usage is what -h prints after sub, the words before it. Usage goes
// to os.Stderr.
func usage(t *testing.T, sub ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = run(append(append([]string{"-data", t.TempDir()}, sub...), "-h"), io.Discard)
	os.Stderr = stderr
	w.Close()
	help, _ := io.ReadAll(r)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("%v -h: %v", sub, err)
	}
	return string(help)
}
