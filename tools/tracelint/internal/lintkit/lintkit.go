// Package lintkit is a dependency-free miniature of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer runs over one
// type-checked package and reports position-anchored diagnostics.
//
// The repo's build environment bakes in only the Go toolchain, so the
// tracelint suite cannot depend on x/tools. The subset implemented
// here is exactly what project-local, single-package analyzers need:
// no facts, no cross-analyzer requirements, no SSA. Drivers (the
// unitchecker protocol in driver.go, the fixture runner in lintest)
// construct a Pass per package and collect what the analyzers report.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output, in `//tracelint:ignore
	// <name> <reason>` suppressions, and in the README inventory.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects the package behind pass and reports violations.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file at pos is a _test.go file.
// Analyzers whose invariant protects production code (hotpath,
// guarded) skip test files: tests allocate freely and poke at state
// they own.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Run executes every analyzer over one package and returns the merged,
// position-sorted diagnostics with `//tracelint:ignore` suppressions
// applied. Malformed suppressions (no analyzer name, or no reason) are
// themselves diagnostics — a suppression must document why.
func Run(pass *Pass, analyzers []*Analyzer) ([]Diagnostic, error) {
	ign, bad := collectIgnores(pass.Fset, pass.Files)
	var out []Diagnostic
	out = append(out, bad...)
	for _, a := range analyzers {
		p := &Pass{
			Analyzer:  a,
			Fset:      pass.Fset,
			Files:     pass.Files,
			TypesInfo: pass.TypesInfo,
		}
		if err := a.Run(p); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		for _, d := range p.diags {
			if !ign.matches(a.Name, d.Pos) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ignoreSet maps file -> line -> analyzer names suppressed on that
// line. A directive suppresses findings on its own line and, when it
// is a standalone comment line, on the following line.
type ignoreSet map[string]map[int][]string

func (s ignoreSet) matches(analyzer string, pos token.Position) bool {
	for _, name := range s[pos.Filename][pos.Line] {
		if name == analyzer {
			return true
		}
	}
	return false
}

// collectIgnores scans comments for `//tracelint:ignore <analyzer>
// <reason>` directives. The reason is mandatory: a suppression is a
// reviewed decision and must say what was decided.
func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Diagnostic) {
	ign := make(ignoreSet)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//tracelint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "tracelint",
						Pos:      pos,
						Message:  "tracelint:ignore needs an analyzer name and a reason: //tracelint:ignore <analyzer> <reason>",
					})
					continue
				}
				m := ign[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					ign[pos.Filename] = m
				}
				// A directive suppresses findings on its own line
				// (trailing-comment form) and on the following line
				// (standalone-comment form).
				m[pos.Line] = append(m[pos.Line], fields[0])
				m[pos.Line+1] = append(m[pos.Line+1], fields[0])
			}
		}
	}
	return ign, bad
}

// FuncDirective reports whether fn's doc comment carries the
// `//tracelint:<name>` directive and returns its arguments.
func FuncDirective(fn *ast.FuncDecl, name string) ([]string, bool) {
	if fn.Doc == nil {
		return nil, false
	}
	for _, c := range fn.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//tracelint:"+name); ok {
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return strings.Fields(rest), true
			}
		}
	}
	return nil, false
}

// ExprString renders a (small) expression as normalized source text —
// the currency guard tracking uses to compare "the same expression"
// across a function body. Only the shapes that plausibly name a mutex
// are rendered; anything else returns "" (never matches).
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		x := ExprString(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.StarExpr:
		return ExprString(e.X)
	}
	return ""
}
