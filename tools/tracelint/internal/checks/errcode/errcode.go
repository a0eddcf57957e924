// Package errcode kills error-code drift against the daemon's v1
// contract: every non-2xx response carries the envelope
// {"error":{"code","message"}} and the README's "stable codes" table
// promises clients the complete code vocabulary. PRs 8 and 9 grew
// that vocabulary by hand at scattered call sites; a typo'd or
// unregistered code at one call site is invisible to the route tests
// that don't happen to drive that branch.
//
// Sinks are annotated at their declaration:
//
//   - `//tracelint:errcode-sink <n>` on a function whose n'th
//     parameter (0-based, receiver excluded) is a stable code — the
//     daemon's httpError and reject writers.
//   - `//tracelint:errcode-field` on a struct field that carries a
//     stable code — engine.ValidationError.Code, whose literals reach
//     the envelope through specError.
//
// At every call of a sink function (and composite literal or
// assignment of a sink field) in the analyzed package, a constant
// string in code position must be a member of StableCodes. Variables
// pass: the analyzer checks the literal vocabulary, not data flow.
// The set below is the source of truth for the tool;
// cmd/tracetrackerd's TestStableCodeSync locks it against the
// daemon's own table and the README.
package errcode

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strconv"
	"strings"

	"repro/tools/tracelint/internal/lintkit"
)

// StableCodes is the complete stable error-code vocabulary of the v1
// API — the analyzer-side copy of the daemon's codes.go table (README
// "The v1 contract" lists the same set for clients). Keep all three
// in sync; TestStableCodeSync in cmd/tracetrackerd fails otherwise.
var StableCodes = []string{
	"bad_cursor",
	"bad_device_config",
	"bad_format",
	"bad_json",
	"bad_limit",
	"bad_spec",
	"bad_trace",
	"config_mismatch",
	"corpus_disabled",
	"format_conflict",
	"internal",
	"job_not_finished",
	"method_not_allowed",
	"missing_input",
	"not_found",
	"payload_too_large",
	"queue_full",
	"quota_exceeded",
	"rate_limited",
	"shutting_down",
	"trace_evicted",
	"unauthorized",
	"unknown_device",
	"unknown_format",
	"unknown_job",
	"unknown_method",
	"unknown_trace",
}

var stable = func() map[string]bool {
	m := make(map[string]bool, len(StableCodes))
	for _, c := range StableCodes {
		m[c] = true
	}
	return m
}()

var Analyzer = &lintkit.Analyzer{
	Name: "errcode",
	Doc: "string literals reaching an error-envelope sink must be registered stable codes\n\n" +
		"Sinks are declared with //tracelint:errcode-sink <param-index> (functions) " +
		"and //tracelint:errcode-field (struct fields).",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	sinkFuncs := make(map[types.Object]int)   // func/method -> code param index
	sinkFields := make(map[types.Object]bool) // struct field vars

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				args, ok := lintkit.FuncDirective(decl, "errcode-sink")
				if !ok {
					continue
				}
				if len(args) != 1 {
					pass.Reportf(decl.Pos(), "errcode-sink directive needs exactly one argument: the 0-based code parameter index")
					continue
				}
				idx, err := strconv.Atoi(args[0])
				if err != nil || idx < 0 {
					pass.Reportf(decl.Pos(), "errcode-sink index %q is not a valid parameter index", args[0])
					continue
				}
				if obj := pass.TypesInfo.Defs[decl.Name]; obj != nil {
					sinkFuncs[obj] = idx
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						if !fieldHasDirective(fld) {
							continue
						}
						for _, name := range fld.Names {
							if obj := pass.TypesInfo.Defs[name]; obj != nil {
								sinkFields[obj] = true
							}
						}
					}
				}
			}
		}
	}
	if len(sinkFuncs) == 0 && len(sinkFields) == 0 {
		return nil
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := calleeObject(pass, n)
				idx, ok := sinkFuncs[obj]
				if !ok {
					return true
				}
				if idx >= len(n.Args) {
					return true
				}
				checkCode(pass, n.Args[idx])
			case *ast.KeyValueExpr:
				id, ok := n.Key.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := pass.TypesInfo.Uses[id]; obj != nil && sinkFields[obj] {
					checkCode(pass, n.Value)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && sinkFields[obj] {
						checkCode(pass, n.Rhs[i])
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkCode reports a constant string in code position that is not a
// registered stable code.
func checkCode(pass *lintkit.Pass, e ast.Expr) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // not a compile-time string: vocabulary unknowable here
	}
	code := constant.StringVal(tv.Value)
	if !stable[code] {
		pass.Reportf(e.Pos(),
			"error code %q is not in the stable-code set — register it in cmd/tracetrackerd/codes.go, the README table, and tracelint's errcode.StableCodes, or use a registered code",
			code)
	}
}

// calleeObject resolves the called function or method object.
func calleeObject(pass *lintkit.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// fieldHasDirective reports whether a struct field carries the
// errcode-field directive in its doc or trailing comment.
func fieldHasDirective(fld *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//tracelint:errcode-field") {
				return true
			}
		}
	}
	return false
}
