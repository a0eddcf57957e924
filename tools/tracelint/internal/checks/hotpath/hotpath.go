// Package hotpath enforces the zero-allocation discipline on
// functions annotated `//tracelint:hotpath` — the per-record codec
// loops (each codec's Decoder.Read and the per-record next it falls
// back on, Encoder.Write/AppendRecords) and
// the engine's per-epoch decompose/emulate/merge bodies whose ≤0.05
// allocs/request bound `zeroalloc_test.go` locks. The benchmark
// catches a regression after the fact on the paths it happens to
// drive; the annotation makes the property reviewable at the line that
// breaks it.
//
// Inside an annotated function the analyzer rejects the constructs
// that allocate on every execution:
//
//   - any call into package fmt (Sprintf and friends allocate;
//     Fprintf reaches a Writer through an interface box)
//   - string <-> []byte / []rune conversions
//   - non-constant string concatenation
//   - function literals (closure environments are heap-allocated)
//   - pointer-to-composite-literal, slice and map literals
//   - make and new
//
// Constructs inside a return statement of a function whose final
// result is an error are exempt: building the error you are about to
// return is the cold path — steady-state records do not error.
// Anything else intentional takes a `//tracelint:ignore hotpath
// <reason>` suppression.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/tracelint/internal/lintkit"
)

var Analyzer = &lintkit.Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //tracelint:hotpath must not contain allocating constructs\n\n" +
		"Keeps the codec and engine per-record loops at their locked 0 allocs/record " +
		"bound at the source level instead of only at the benchmark level.",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := lintkit.FuncDirective(fn, "hotpath"); !ok {
				continue
			}
			check(pass, fn)
		}
	}
	return nil
}

func check(pass *lintkit.Pass, fn *ast.FuncDecl) {
	// Constructs inside a `return` of an error-returning function are
	// the cold error path; collect those spans first and exempt them.
	var errSpans []span
	if lastResultIsError(pass, fn) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				errSpans = append(errSpans, span{ret.Pos(), ret.End()})
			}
			return true
		})
	}
	inErrSpan := func(pos token.Pos) bool {
		for _, s := range errSpans {
			if s.lo <= pos && pos < s.hi {
				return true
			}
		}
		return false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if inErrSpan(n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hot path: function literal allocates its closure environment")
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(pass, n) {
				pass.Reportf(n.Pos(), "hot path: non-constant string concatenation allocates")
			}
		case *ast.CompositeLit:
			checkCompositeLit(pass, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hot path: address of composite literal escapes to the heap")
				}
			}
		}
		return true
	})
}

type span struct{ lo, hi token.Pos }

// checkCall flags fmt calls, allocating conversions, and make/new.
func checkCall(pass *lintkit.Pass, call *ast.CallExpr) {
	// Conversion? The "function" position holds a type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		argTV, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok {
			return
		}
		from := argTV.Type.Underlying()
		if isStringByteConversion(to, from) && argTV.Value == nil {
			pass.Reportf(call.Pos(), "hot path: %s conversion copies its operand", conversionName(to, from))
		}
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make", "new":
			if obj := pass.TypesInfo.Uses[fun]; obj != nil && obj.Parent() == types.Universe {
				pass.Reportf(call.Pos(), "hot path: %s allocates", fun.Name)
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "hot path: fmt.%s allocates (boxes operands and formats through reflection)", fun.Sel.Name)
			}
		}
	}
}

func checkCompositeLit(pass *lintkit.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "hot path: slice literal allocates its backing array")
	case *types.Map:
		pass.Reportf(lit.Pos(), "hot path: map literal allocates")
	}
}

func isStringByteConversion(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func conversionName(to, from types.Type) string {
	if isString(to) {
		return "[]byte-to-string"
	}
	return "string-to-slice"
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isNonConstString(pass *lintkit.Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isString(tv.Type.Underlying()) && tv.Value == nil
}

// lastResultIsError reports whether fn's final result type is error.
func lastResultIsError(pass *lintkit.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil || len(fn.Type.Results.List) == 0 {
		return false
	}
	last := fn.Type.Results.List[len(fn.Type.Results.List)-1]
	tv, ok := pass.TypesInfo.Types[last.Type]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}
