// Package lintutil holds the small AST/type-resolution helpers shared
// by the detcheck analyzers: callee resolution, base-identifier
// extraction, parent maps, and type predicates. Everything here is pure
// syntax/type inspection with no analyzer policy.
package lintutil

import (
	"go/ast"
	"go/types"
)

// CalleeObject resolves the function or method a call invokes, or nil
// when the callee is not a named object (e.g. a called function value
// returned by another call).
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// FuncPkg returns the defining package path and name of obj when it is
// a function (package-level or method).
func FuncPkg(obj types.Object) (pkgPath, name string, ok bool) {
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// RootIdent strips selectors, indexing, slicing, dereferences, parens,
// and type assertions from e and returns the base identifier being
// accessed, or nil when the access is rooted in something else (a call,
// a literal).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// RootExpr is RootIdent without the identifier requirement: it returns
// the innermost expression an access chain is rooted in (an identifier,
// a call, a literal).
func RootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return e
		}
	}
}

// Parents maps every node in f to its syntactic parent.
func Parents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// IsMapType reports whether t's core type is a map.
func IsMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// IsChanType reports whether t's core type is a channel.
func IsChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// IsInteger reports whether t is an integer type (any size/signedness).
func IsInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// IsFloat reports whether t is float32 or float64.
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// IsBool reports whether t is a boolean type.
func IsBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

// NamedPath returns the package path and type name of t after stripping
// pointers, or ("", "") when t is not a (pointer to) defined type.
func NamedPath(t types.Type) (pkgPath, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// EnclosingFuncBody returns the body of the innermost enclosing
// function (declaration or literal) of n, using a parent map.
func EnclosingFuncBody(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		switch fn := cur.(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}
