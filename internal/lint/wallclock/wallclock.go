// Package wallclock defines the detcheck analyzer that keeps wall-clock
// and ambient-randomness values out of the deterministic result path.
//
// The contract (DESIGN.md §12): report bytes, CSV, wire payloads, and
// fingerprints are pure functions of the input. Wall-clock readings may
// exist in result-path packages — phase timings are deliberately
// recorded there — but they must stay inside the timing domain
// (time.Time / time.Duration values flowing into obs timing fields),
// the class of bug behind the CSV runtime_ms column removed in PR 5.
//
// The analyzer flags every call to time.Now / time.Since / time.Until
// whose value escapes that domain: converted, formatted, stored in a
// non-time-typed location, or used in any way other than (a) feeding
// other time.* calls, (b) assignment into a time.Time/time.Duration
// variable or field, or (c) a time-typed field of a composite literal.
// Calls to math/rand's package-level functions (the globally,
// nondeterministically seeded source) are flagged unconditionally —
// explicitly seeded *rand.Rand values are fine.
package wallclock

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer is the wallclock rule.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock and ambient-randomness values escaping into deterministic output\n\n" +
		"time.Now/Since/Until results must remain time.Time/time.Duration values\n" +
		"flowing into timing fields; math/rand global functions are forbidden on\n" +
		"the result path outright.",
	Run: run,
}

// timeSources are the time-package functions that read the wall clock.
var timeSources = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand package-level functions that do
// NOT draw from the global source and are therefore fine.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		parents := lintutil.Parents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := lintutil.CalleeObject(pass.TypesInfo, call)
			pkgPath, name, ok := lintutil.FuncPkg(obj)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "time" && timeSources[name]:
				if !inTimingDomain(pass, parents, call) {
					pass.Reportf(call.Pos(),
						"wall-clock value from time.%s escapes the timing domain: values derived from it can reach deterministic output (reports, CSV, wire, fingerprints); keep it in time.Time/Duration timing fields",
						name)
				}
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name]:
				if fn, isFn := obj.(*types.Func); isFn {
					if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
						return true // methods on explicitly seeded *rand.Rand are fine
					}
				}
				pass.Reportf(call.Pos(),
					"%s.%s draws from the global, nondeterministically seeded source: result-path randomness must come from an explicitly seeded rand.New(rand.NewSource(seed))",
					pkgPath, name)
			}
			return true
		})
	}
	return nil, nil
}

// inTimingDomain reports whether the wall-clock call's value provably
// stays inside the time domain: it is consumed by another time.* call,
// assigned into a time.Time/time.Duration location, or bound to a local
// whose every use is itself in the timing domain.
func inTimingDomain(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	parent := parents[call]
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[p]
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		// time.Since(start), someTime.Sub(x) arguments: still time-domain.
		if p.Fun == call {
			return false // the value is being called — cannot happen for these, be strict
		}
		obj := lintutil.CalleeObject(pass.TypesInfo, p)
		if pkgPath, name, ok := lintutil.FuncPkg(obj); ok && pkgPath == "time" && timeSources[name] {
			return true
		}
		return timeTypedArg(pass, p, call)
	case *ast.AssignStmt:
		// Find which LHS this call feeds. Only the 1:1 form is
		// recognized; multi-value contexts are out of the domain.
		if len(p.Lhs) != 1 || len(p.Rhs) != 1 || p.Rhs[0] != call {
			return false
		}
		return timingTarget(pass, parents, p.Lhs[0])
	case *ast.ValueSpec:
		for i, v := range p.Values {
			if v == call && i < len(p.Names) {
				return timingTarget(pass, parents, p.Names[i])
			}
		}
		return false
	case *ast.KeyValueExpr:
		// Composite-literal field of time type.
		return isTimeType(pass.TypesInfo.TypeOf(p.Value))
	case *ast.BinaryExpr:
		// Arithmetic between time values (t.Sub-style via operators is
		// not a thing, but Duration +/- Duration is): stay in domain if
		// the result is a time type and the binary expr itself lands in
		// the domain.
		if !isTimeType(pass.TypesInfo.TypeOf(p)) {
			return false
		}
		return inTimingDomainExpr(pass, parents, p)
	}
	return false
}

// inTimingDomainExpr applies the same escape rules to a non-call
// time-typed expression node.
func inTimingDomainExpr(pass *analysis.Pass, parents map[ast.Node]ast.Node, e ast.Expr) bool {
	switch p := parents[e].(type) {
	case *ast.AssignStmt:
		if len(p.Lhs) != 1 || len(p.Rhs) != 1 || p.Rhs[0] != e {
			return false
		}
		return timingTarget(pass, parents, p.Lhs[0])
	case *ast.KeyValueExpr:
		return isTimeType(pass.TypesInfo.TypeOf(p.Value))
	}
	return false
}

// timingTarget reports whether the assignment target is a
// time.Time/time.Duration location and, when it is a local variable,
// whether every subsequent use of that variable stays in the timing
// domain.
func timingTarget(pass *analysis.Pass, parents map[ast.Node]ast.Node, lhs ast.Expr) bool {
	if !isTimeType(pass.TypesInfo.TypeOf(lhs)) {
		return false
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		// Field or element of time type: the struct owner decides how
		// it is rendered; storing a Duration in a Duration field is the
		// sanctioned pattern (Outcome.Runtime, obs.PhaseTimes).
		return true
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		// Package-level time var: mutable global timing state; treat a
		// direct store as in-domain (rendering it elsewhere is the
		// responsibility of the package that owns it).
		return true
	}
	// Local variable: every use must stay in the timing domain.
	body := lintutil.EnclosingFuncBody(parents, id)
	if body == nil {
		return true
	}
	ok = true
	ast.Inspect(body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		use, isIdent := n.(*ast.Ident)
		if !isIdent || pass.TypesInfo.Uses[use] != v {
			return true
		}
		if !timeUseOK(pass, parents, use) {
			ok = false
		}
		return true
	})
	return ok
}

// timeUseOK decides whether one use of a time-typed local keeps the
// value in the timing domain.
func timeUseOK(pass *analysis.Pass, parents map[ast.Node]ast.Node, use *ast.Ident) bool {
	switch p := parents[use].(type) {
	case *ast.CallExpr:
		obj := lintutil.CalleeObject(pass.TypesInfo, p)
		if pkgPath, name, ok := lintutil.FuncPkg(obj); ok && pkgPath == "time" && timeSources[name] {
			return true
		}
		return timeTypedArg(pass, p, use)
	case *ast.SelectorExpr:
		// Method call on the value: t.Sub(u), d.Truncate(...) keep the
		// domain only if the *method's result* stays in it; t.Unix(),
		// d.Milliseconds() leave it. Approximate by result type: a
		// time-typed result that feeds a timing context is fine.
		if callP, ok := parents[p].(*ast.CallExpr); ok && callP.Fun == p {
			if isTimeType(pass.TypesInfo.TypeOf(callP)) {
				return inTimingDomain(pass, parents, callP)
			}
			return false
		}
		return false
	case *ast.AssignStmt:
		// An occurrence on the left is a store into the time-typed local,
		// not a read: whatever it stores is checked at its own source.
		for _, l := range p.Lhs {
			if l == use {
				return true
			}
		}
		for i, r := range p.Rhs {
			if r == use && i < len(p.Lhs) {
				return timingTarget(pass, parents, p.Lhs[i])
			}
		}
		return false
	case *ast.KeyValueExpr:
		return p.Value == use && isTimeType(pass.TypesInfo.TypeOf(use))
	case *ast.BinaryExpr:
		if isTimeType(pass.TypesInfo.TypeOf(p)) {
			return inTimingDomainExpr(pass, parents, p)
		}
		// Comparisons between time values (deadline checks) read but do
		// not leak the value.
		if lintutil.IsBool(pass.TypesInfo.TypeOf(p)) {
			return true
		}
		return false
	}
	return false
}

// timeTypedArg reports whether e appears as an argument of call in a
// position whose parameter type is time.Time/time.Duration. Handing a
// time value to a time-typed parameter keeps it in the timing domain:
// the callee's body is analyzed on its own, so any leak there gets its
// own diagnostic. Conversions (call.Fun naming a type) never qualify.
func timeTypedArg(pass *analysis.Pass, call *ast.CallExpr, e ast.Expr) bool {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	for i, arg := range call.Args {
		if arg != e {
			continue
		}
		params := sig.Params()
		if params.Len() == 0 {
			return false
		}
		if i >= params.Len() {
			if !sig.Variadic() {
				return false
			}
			i = params.Len() - 1
		}
		t := params.At(i).Type()
		if sig.Variadic() && i == params.Len()-1 && !call.Ellipsis.IsValid() {
			if s, ok := t.(*types.Slice); ok {
				t = s.Elem()
			}
		}
		return isTimeType(t)
	}
	return false
}

func isTimeType(t types.Type) bool {
	pkgPath, name := lintutil.NamedPath(t)
	return pkgPath == "time" && (name == "Time" || name == "Duration")
}
