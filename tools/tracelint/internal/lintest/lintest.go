// Package lintest is a dependency-free miniature of
// golang.org/x/tools/go/analysis/analysistest: it loads fixture
// packages from an analyzer's testdata/src tree, runs the analyzer,
// and checks reported diagnostics against `// want "regexp"`
// expectations in the fixture source.
//
// Fixture packages import only the standard library, type-checked
// from GOROOT source, since the offline build environment installs no
// export data for a fixture toolchain to read.
package lintest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/tools/tracelint/internal/lintkit"
)

// Run loads each named fixture package from dir/src/<path>, runs the
// analyzer (with tracelint:ignore filtering applied, so fixtures can
// cover the suppression mechanism too), and reports mismatches
// against the fixtures' // want expectations as test errors.
func Run(t *testing.T, dir string, a *lintkit.Analyzer, pkgPaths ...string) {
	t.Helper()
	std := importer.ForCompiler(token.NewFileSet(), "source", nil)
	for _, path := range pkgPaths {
		pkgDir := filepath.Join(dir, "src", path)
		entries, err := os.ReadDir(pkgDir)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(pkgDir, e.Name()))
			}
		}
		pass, err := lintkit.Typecheck(path, files, "", std)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		diags, err := lintkit.Run(pass, []*lintkit.Analyzer{a})
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		checkWants(t, pass.Fset, pass.Files, diags)
	}
}

// want is one expectation: a diagnostic matching re on line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// checkWants cross-checks diagnostics against // want comments.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lintkit.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				pats, err := parseWantPatterns(rest)
				if err != nil {
					t.Errorf("%s: bad want comment: %v", pos, err)
					continue
				}
				for _, p := range pats {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, p, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: p})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// parseWantPatterns splits `"re1" "re2"` (double-quoted or backquoted
// Go string literals) into its patterns.
func parseWantPatterns(s string) ([]string, error) {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated pattern: %s", s)
			}
			p, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			pats = append(pats, p)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated pattern: %s", s)
			}
			pats = append(pats, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("expected quoted pattern at: %s", s)
		}
	}
	return pats, nil
}
