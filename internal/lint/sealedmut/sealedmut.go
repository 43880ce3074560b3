// Package sealedmut defines the detcheck analyzer that forbids writing
// through data obtained from sealed artifact accessors.
//
// artifact.Seal freezes a routing result; every consumer reads it
// through Artifact.Result() / Artifact.Drain() and must treat the
// returned structures as immutable — they are shared across flows,
// batch cells, and (via the disk tier) processes. The runtime defense
// is the fingerprint re-verification on every Result() call (PR 8);
// this analyzer is its static complement: it catches the mutation at
// the write site, in the package that commits it, before any test runs.
//
// Within each function, values returned by the sealed accessors — and
// locals derived from them by assignment, field selection, or indexing
// — are tainted. A statement that writes through a tainted access path
// (field store, element store, IncDec, copy-into) is reported.
// Rebinding the variable itself (`res = nil`) is fine. The analysis is
// intraprocedural by design: values escaping into other functions are
// the runtime fingerprint check's jurisdiction.
package sealedmut

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// ArtifactPkg is the package whose accessors seal data. The analyzer
// never runs on the package itself (the driver scopes it out): the
// store legitimately constructs and fingerprints its own payloads.
const ArtifactPkg = "repro/internal/artifact"

// sealedAccessors are the methods of artifact.Artifact whose return
// values are sealed shared state.
var sealedAccessors = map[string]bool{"Result": true, "Drain": true}

// Analyzer is the sealedmut rule.
var Analyzer = &analysis.Analyzer{
	Name: "sealedmut",
	Doc: "forbid mutation of sealed artifact data outside internal/artifact\n\n" +
		"Values returned by Artifact.Result()/Artifact.Drain() are shared,\n" +
		"fingerprint-sealed state; writing through them poisons every later\n" +
		"cache hit. Clone what you need to change.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

// checkFunc runs the per-function taint pass. Function literals are
// visited as part of the enclosing body walk, so their statements see
// the same taint set — a closure mutating a captured sealed value is
// still a mutation.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	tainted := make(map[types.Object]bool)

	// Seed + propagate to a fixed point: assignments can appear after
	// uses in source order only via goto, but derived bindings chain
	// (res -> trees -> t), so iterate until stable.
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				grew = taintAssign(info, tainted, s.Lhs, s.Rhs) || grew
			case *ast.GenDecl:
				for _, spec := range s.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					grew = taintAssign(info, tainted, lhs, vs.Values) || grew
				}
			}
			return true
		})
		if !grew {
			break
		}
	}

	report := func(pos ast.Node, what string) {
		pass.Reportf(pos.Pos(),
			"write through sealed artifact data (%s): results from Artifact.Result()/Drain() are shared immutable state; clone before mutating", what)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if isSealedWrite(info, tainted, lhs) {
					report(lhs, types.ExprString(lhs))
				}
			}
		case *ast.IncDecStmt:
			if isSealedWrite(info, tainted, s.X) {
				report(s.X, types.ExprString(s.X))
			}
		case *ast.CallExpr:
			// copy(dst, src) writes into dst.
			if b, ok := lintutil.CalleeObject(info, s).(*types.Builtin); ok && b.Name() == "copy" && len(s.Args) == 2 {
				if sealedRoot(info, tainted, s.Args[0]) {
					report(s.Args[0], types.ExprString(s.Args[0]))
				}
			}
		}
		return true
	})
}

// taintAssign extends the taint set from one assignment; reports growth.
func taintAssign(info *types.Info, tainted map[types.Object]bool, lhs, rhs []ast.Expr) bool {
	grew := false
	mark := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil && !tainted[obj] {
			tainted[obj] = true
			grew = true
		}
	}
	switch {
	case len(rhs) == 1 && len(lhs) > 1:
		// res, err := a.Result(): only the first result is sealed data.
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && isSealedCall(info, call) {
			mark(lhs[0])
		}
	case len(lhs) == len(rhs):
		for i := range lhs {
			r := ast.Unparen(rhs[i])
			if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.AND {
				// p := &res.Trees[i]: a pointer into sealed memory.
				if sealedRoot(info, tainted, u.X) {
					mark(lhs[i])
				}
				continue
			}
			// Derived binding: trees := res.Trees, t := trees[0]. Only
			// reference-like values alias sealed memory — a struct or
			// scalar copy is the caller's own to mutate.
			if sealedRoot(info, tainted, r) && refLike(info.TypeOf(r)) {
				mark(lhs[i])
			}
		}
	}
	return grew
}

// refLike reports whether values of t alias their source's memory
// (pointers, slices, maps, interfaces) rather than copying it.
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface, *types.Chan:
		return true
	}
	return false
}

// isSealedCall reports whether call invokes a sealed artifact accessor.
func isSealedCall(info *types.Info, call *ast.CallExpr) bool {
	obj := lintutil.CalleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != ArtifactPkg || !sealedAccessors[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	pkgPath, name := lintutil.NamedPath(sig.Recv().Type())
	return pkgPath == ArtifactPkg && name == "Artifact"
}

// sealedRoot reports whether e's access chain is rooted in a tainted
// identifier. Result and Drain both return an error beside their data, so
// their data reaches a chain only through one (d, err := a.Drain()).
func sealedRoot(info *types.Info, tainted map[types.Object]bool, e ast.Expr) bool {
	id, ok := lintutil.RootExpr(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && tainted[obj]
}

// isSealedWrite reports whether lhs writes *through* sealed data — a
// selector/index/star chain rooted in a tainted value. A bare tainted
// identifier is a rebind, not a write.
func isSealedWrite(info *types.Info, tainted map[types.Object]bool, lhs ast.Expr) bool {
	if _, bare := ast.Unparen(lhs).(*ast.Ident); bare {
		return false
	}
	return sealedRoot(info, tainted, lhs)
}
