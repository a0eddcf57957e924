package lintkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// A tracelint:ignore with no analyzer name or no reason is itself a
// diagnostic: a suppression is a reviewed decision and must say why.
func TestMalformedIgnoreIsDiagnostic(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	//tracelint:ignore
	_ = 1
	//tracelint:ignore guarded
	_ = 2
	//tracelint:ignore guarded a documented reason
	_ = 3
}
`)
	ign, bad := collectIgnores(fset, files)
	if len(bad) != 2 {
		t.Fatalf("got %d malformed-directive diagnostics, want 2: %v", len(bad), bad)
	}
	for _, d := range bad {
		if !strings.Contains(d.Message, "needs an analyzer name and a reason") {
			t.Errorf("unexpected message: %s", d.Message)
		}
	}
	// The well-formed directive suppresses its own line and the next.
	if !ign.matches("guarded", token.Position{Filename: "a.go", Line: 8}) {
		t.Error("directive line not suppressed")
	}
	if !ign.matches("guarded", token.Position{Filename: "a.go", Line: 9}) {
		t.Error("line after directive not suppressed")
	}
	if ign.matches("guarded", token.Position{Filename: "a.go", Line: 10}) {
		t.Error("suppression leaked past the following line")
	}
	if ign.matches("hotpath", token.Position{Filename: "a.go", Line: 9}) {
		t.Error("suppression leaked to a different analyzer")
	}
}

func TestExprString(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	_ = a
	_ = a.b.c
	_ = (a.b)
	_ = *a.b
	_ = a[0].b
}
`)
	_ = fset
	var got []string
	ast.Inspect(files[0], func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		got = append(got, ExprString(as.Rhs[0]))
		return true
	})
	want := []string{"a", "a.b.c", "a.b", "a.b", ""}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("expr %d: got %q, want %q", i, got[i], want[i])
		}
	}
}
