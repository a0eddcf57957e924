// Package guarded enforces `// guarded by <mu>` field annotations:
// a field so annotated may only be read or written in functions that
// demonstrably hold that mutex. This is the class of race PR 8 fixed
// in handleSubmit — a 202 response read j.ID after releasing s.mu
// while a fast-failing worker rewrote it under the lock — promoted
// from a -race-under-load find to a compile-time failure.
//
// The check is lexical and deliberately conservative:
//
//   - An access base.field (with field annotated "guarded by mu") is
//     legal when the enclosing function contains base.mu.Lock() or
//     base.mu.RLock() lexically before the access, or when the
//     function is annotated `//tracelint:holds <mu>` (a helper whose
//     documented contract is "caller must hold mu").
//   - Composite-literal construction is exempt: a value under
//     construction is not yet shared.
//   - Test files are exempt; the invariant protects the concurrent
//     production surface.
//
// It does not track Unlock, gotos, or aliasing — it answers one
// question precisely: "is there any locking discipline in this
// function at all for the mutex this field names?"
package guarded

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/tools/tracelint/internal/lintkit"
)

var Analyzer = &lintkit.Analyzer{
	Name: "guarded",
	Doc: "fields annotated `// guarded by <mu>` may only be accessed under that mutex\n\n" +
		"Functions that access such a field must Lock/RLock <mu> first or carry " +
		"//tracelint:holds <mu>.",
	Run: run,
}

var guardedRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

func run(pass *lintkit.Pass) error {
	// fieldGuards: the annotated fields of this package's structs,
	// keyed by the field's types object; value = mutex name.
	fieldGuards := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				mu := fieldAnnotation(fld)
				if mu == "" {
					continue
				}
				for _, name := range fld.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						fieldGuards[obj] = mu
					}
				}
			}
			return true
		})
	}
	if len(fieldGuards) == 0 {
		return nil
	}

	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, fieldGuards)
		}
	}
	return nil
}

// fieldAnnotation extracts the mutex name from a field's
// `// guarded by <mu>` doc or trailing comment.
func fieldAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedRE.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

func checkFunc(pass *lintkit.Pass, fn *ast.FuncDecl, fieldGuards map[types.Object]string) {
	holds := make(map[string]bool)
	if args, ok := lintkit.FuncDirective(fn, "holds"); ok {
		for _, a := range args {
			holds[a] = true
		}
	}

	// locks: "<base>.<mu>" -> earliest Lock/RLock position.
	locks := make(map[string]token.Pos)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if mu := lintkit.ExprString(sel.X); mu != "" {
			if old, ok := locks[mu]; !ok || call.Pos() < old {
				locks[mu] = call.Pos()
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if v, ok := obj.(*types.Var); ok {
			// A generic struct's methods see an instantiated copy of the
			// field; the annotation hangs off the declared one.
			obj = v.Origin()
		}
		mu, ok := fieldGuards[obj]
		if !ok {
			return true
		}
		if holds[mu] {
			return true
		}
		base := lintkit.ExprString(sel.X)
		lockExpr := mu
		if base != "" && !hasDot(mu) {
			lockExpr = base + "." + mu
		}
		if pos, ok := locks[lockExpr]; ok && pos < sel.Pos() {
			return true
		}
		pass.Reportf(sel.Pos(),
			"access to %s (guarded by %s) outside %s.Lock() — lock first or annotate the function //tracelint:holds %s",
			fieldName(base, sel.Sel.Name), mu, lockExpr, mu)
		return true
	})
}

func fieldName(base, name string) string {
	if base == "" {
		return name
	}
	return base + "." + name
}

func hasDot(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return true
		}
	}
	return false
}
