// Package readmetest keeps the README's reference half in step with the
// code: each vocabulary (routes, codes, methods, targets, formats, spans,
// metrics, experiments, flags) sits in a marked block that a test renders
// from the vocabulary's one table and compares byte for byte. Only
// _test.go files import it, so none of it ships in a binary.
//
// A block is the text between a line "<!-- gen:NAME -->" and the next
// line "<!-- /gen -->". Each block has one owning package, whose test
// calls Check. Check logs "README block NAME checked", and CI runs
// every TestReadmeBlocks with -v and fails on a block no test logged,
// so a block whose test is deleted does not go stale silently. With
// update set, Check rewrites the block instead of comparing it, and
// touches nothing outside the markers. Several packages own blocks of
// the one README, so regenerate them one package at a time:
//
//	go test -p 1 -run '^TestReadmeBlocks$' ./cmd/... -update
package readmetest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// regenerate is the command that rewrites every block.
const regenerate = "go test -p 1 -run '^TestReadmeBlocks$' ./cmd/... -update"

// Check compares README block name with want, or rewrites it when
// update is set. want is the block's body; it ends with a newline.
func Check(t *testing.T, name, want string, update bool) {
	t.Helper()
	path, data, body, n := block(t, name)
	t.Logf("README block %s checked", name)
	got := string(data[body : body+n])
	if got == want {
		return
	}
	if update {
		out := append(append(append([]byte{}, data[:body]...), want...), data[body+n:]...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	line := firstDiff(got, want)
	t.Errorf("README.md block %s differs from its table at its line %d:\n README: %q\n table:  %q\nregenerate with: %s",
		name, line, lineAt(got, line), lineAt(want, line), regenerate)
}

// CheckFlags compares README block "flags-"+command with what help
// returns, the command's -h text, in a code block. help runs at two
// GOMAXPROCS values: a "(default N)" that is GOMAXPROCS reads
// "(default GOMAXPROCS)", so the block is the same on any machine, and
// any other difference between the two runs fails.
func CheckFlags(t *testing.T, command string, help func() string, update bool) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out [2]string
	for i, procs := range []int{3, 5} {
		runtime.GOMAXPROCS(procs)
		out[i] = strings.ReplaceAll(help(), fmt.Sprintf("(default %d)", procs), "(default GOMAXPROCS)")
	}
	if out[0] != out[1] {
		t.Fatalf("%s -h depends on GOMAXPROCS outside a GOMAXPROCS default:\n%s\n---\n%s", command, out[0], out[1])
	}
	Check(t, "flags-"+command, "```text\n"+out[0]+"```\n", update)
}

// Block returns the body of README block name, as committed.
func Block(t *testing.T, name string) string {
	t.Helper()
	_, data, body, n := block(t, name)
	return string(data[body : body+n])
}

// block reads the README at path and finds block name's body, n bytes
// from offset body of data.
func block(t *testing.T, name string) (path string, data []byte, body, n int) {
	t.Helper()
	path = readmePath(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open, end := "<!-- gen:"+name+" -->\n", "<!-- /gen -->\n"
	i := bytes.Index(data, []byte(open))
	if i < 0 || bytes.Count(data, []byte(open)) != 1 {
		t.Fatalf("README.md needs exactly one %q line to hold block %s", strings.TrimSpace(open), name)
	}
	body = i + len(open)
	if n = bytes.Index(data[body:], []byte(end)); n < 0 {
		t.Fatalf("README.md block %s has no %q line", name, strings.TrimSpace(end))
	}
	return path, data, body, n
}

// readmePath is the README.md at the module root above the test's
// working directory.
func readmePath(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "README.md")
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}

// firstDiff is the 1-based line of a and b's first difference.
func firstDiff(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}

// lineAt is line n (1-based) of s, or "" past its end.
func lineAt(s string, n int) string {
	if l := strings.Split(s, "\n"); n <= len(l) {
		return l[n-1]
	}
	return ""
}
