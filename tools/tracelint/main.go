// Command tracelint is the repo's project-specific static-analysis
// suite: two analyzers enforcing the load-bearing invariants the test
// suite can only sample (allocation-free annotated hot paths,
// mutex-guarded field access).
//
// It has one driver, the `go vet -vettool` unit-checking protocol, so
// the repo-wide run is, from the module root:
//
//	go build -o /tmp/tracelint .   (from tools/tracelint)
//	go vet -vettool=/tmp/tracelint ./...
//
// Suppressions: `//tracelint:ignore <analyzer> <reason>` on (or on
// the line above) the offending line. The reason is mandatory.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/tools/tracelint/internal/checks/guarded"
	"repro/tools/tracelint/internal/checks/hotpath"
	"repro/tools/tracelint/internal/lintkit"
)

// analyzers is the suite, in README inventory order.
var analyzers = []*lintkit.Analyzer{
	hotpath.Analyzer,
	guarded.Analyzer,
}

func main() {
	// The go command probes a vettool twice before using it:
	// `-V=full` for a version/build identity line (cache keying) and
	// `-flags` for the JSON list of tool flags it may pass through.
	versionFlag := flag.String("V", "", "print version and exit (go command protocol)")
	flagsFlag := flag.Bool("flags", false, "print tool flags as JSON and exit (go command protocol)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=/path/to/tracelint [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion()
		return
	case *flagsFlag:
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		flag.Usage()
		os.Exit(2)
	}
	diags, err := lintkit.RunVetConfig(args[0], analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracelint:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// printVersion emits the `name version build-id` line the go command
// hashes into its action cache, so a rebuilt tracelint binary (new
// checks, new annotations semantics) invalidates cached vet verdicts.
func printVersion() {
	name := filepath.Base(os.Args[0])
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			io.Copy(h, f)
			f.Close()
			id = fmt.Sprintf("%x", h.Sum(nil)[:12])
		}
	}
	fmt.Printf("%s version devel buildID=%s\n", name, id)
}
