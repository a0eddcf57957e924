package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/readmetest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/all-ops800.txt, or README.md's generated blocks")

// TestAllGolden pins every figure and table: the stdout of
// `experiments -ops 800 all` must equal the committed golden byte for
// byte. A change that moves a figure on purpose regenerates it with
//
//	go test ./cmd/experiments -run TestAllGolden -update
//
// and the diff shows in review.
func TestAllGolden(t *testing.T) {
	var got bytes.Buffer
	for _, e := range table {
		if err := runOne(e.name, e.run, experiments.Config{Ops: 800}, &got, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
	path := filepath.Join("testdata", "golden", "all-ops800.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/experiments -run TestAllGolden -update` to create it)", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("experiments output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("experiments output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestRunnersProduceOutput exercises the cheap runners end to end via
// the same entry points main uses.
func TestRunnersProduceOutput(t *testing.T) {
	cfg := experiments.Config{Ops: 800}
	for _, name := range []string{"fig9", "fig5", "table1"} {
		run, ok := lookup(name)
		if !ok {
			t.Fatalf("%s not in the table", name)
		}
		var buf bytes.Buffer
		if err := run(cfg, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

// TestCorpusSweepPerConfig checks the memo of the corpus sweep: each of
// the six experiments that read it renders, run alone, the bytes of its
// section of `all`, and `all` at a second seed right after the first
// does not reuse the first seed's sweep.
func TestCorpusSweepPerConfig(t *testing.T) {
	render := func(name string, cfg experiments.Config) string {
		t.Helper()
		run, ok := lookup(name)
		if !ok {
			t.Fatalf("%s not in the table", name)
		}
		var b bytes.Buffer
		if err := runOne(name, run, cfg, &b, io.Discard); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return b.String()
	}
	seed0, seed1 := experiments.Config{Ops: 800}, experiments.Config{Ops: 800, Seed: 1}
	clear(sweeps)
	all := map[experiments.Config]map[string]string{}
	for _, cfg := range []experiments.Config{seed0, seed1} {
		all[cfg] = map[string]string{}
		for _, e := range table {
			all[cfg][e.name] = render(e.name, cfg)
		}
	}
	for _, name := range []string{"fig13", "fig14", "fig16", "fig17", "claims", "ext-fidelity"} {
		clear(sweeps)
		alone := render(name, seed1)
		if alone != all[seed1][name] {
			t.Errorf("%s at seed 1: run alone differs from its section of all", name)
		}
		if alone == all[seed0][name] {
			t.Errorf("%s: seeds 0 and 1 render the same bytes", name)
		}
	}
}

// TestReadmeBlocks holds the README's experiment list to the table, and
// its flags block to the command's flag set.
func TestReadmeBlocks(t *testing.T) {
	var list strings.Builder
	list.WriteString("| experiment | what it prints |\n| --- | --- |\n")
	for _, e := range table {
		fmt.Fprintf(&list, "| `%s` | %s |\n", e.name, strings.ReplaceAll(e.doc, "|", `\|`))
	}
	readmetest.Check(t, "experiments", list.String(), *updateGolden)

	readmetest.CheckFlags(t, "experiments", func() string {
		fs, _ := flags()
		var help strings.Builder
		fs.SetOutput(&help)
		fs.PrintDefaults()
		return help.String()
	}, *updateGolden)
}
