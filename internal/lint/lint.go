// Package lint is the detcheck determinism lint suite: the analyzers
// that statically enforce the pipeline's determinism contract (same
// inputs → byte-identical reports at any -workers/-jobs setting), the
// package-scoping policy deciding where each rule applies, and the
// per-package runner shared by the standalone driver and the
// `go vet -vettool` protocol adapter (cmd/detcheck).
//
// The suite ships four rules, each born from a bug class that reached
// the tree (DESIGN.md §12):
//
//   - maporder:   order-sensitive map iteration (PRs 1, 2)
//   - wallclock:  wall-clock/randomness values escaping into output (PR 5)
//   - sealedmut:  mutation of sealed shared artifacts (PRs 8, 9)
//   - floatorder: float accumulation in nondeterministic order (PRs 3, 7)
//
// Suppression is per-site and audited: //detcheck:allow <rule> <why>,
// where an empty <why> is itself a diagnostic (package allow).
package lint

import (
	"sort"
	"strings"

	"repro/internal/lint/allow"
	"repro/internal/lint/analysis"
	"repro/internal/lint/floatorder"
	"repro/internal/lint/load"
	"repro/internal/lint/maporder"
	"repro/internal/lint/sealedmut"
	"repro/internal/lint/wallclock"
)

// Analyzers is the detcheck suite in reporting order.
var Analyzers = []*analysis.Analyzer{
	maporder.Analyzer,
	wallclock.Analyzer,
	sealedmut.Analyzer,
	floatorder.Analyzer,
}

// onResultPath reports whether a package's output can feed report bytes,
// CSV, wire payloads, the LSK table, or fingerprints and artifact keys —
// the determinism contract's blast radius: every package under
// repro/internal except the observability layer (internal/obs), where
// wall-clock values and map iteration are legitimate. It is a denylist,
// so a new internal package is covered by default; commands, examples
// and benches are UIs and stay out.
func onResultPath(pkgPath string) bool {
	const internal = "repro/internal/"
	if !strings.HasPrefix(pkgPath, internal) {
		return false
	}
	rest := pkgPath[len(internal):]
	return rest != "obs" && !strings.HasPrefix(rest, "obs/")
}

// Applies reports whether analyzer a runs on package pkgPath.
func Applies(a *analysis.Analyzer, pkgPath string) bool {
	// go vet presents test units as "pkg [pkg.test]" / "pkg_test [...]";
	// scope by the underlying package path.
	if i := strings.IndexByte(pkgPath, ' '); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	switch a.Name {
	case sealedmut.Analyzer.Name:
		// Sealed data can leak anywhere an artifact store is plumbed;
		// only the artifact package itself may touch payloads.
		return pkgPath != sealedmut.ArtifactPkg
	default:
		return onResultPath(pkgPath)
	}
}

// KnownRules returns the set of rule names //detcheck:allow may name.
func KnownRules() map[string]bool {
	rules := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		rules[a.Name] = true
	}
	return rules
}

// RunPackage applies every in-scope analyzer to pkg, resolves allow
// directives, and returns the surviving diagnostics sorted by position.
// Diagnostics in _test.go files are dropped: tests are the dynamic
// layer of the contract and legitimately hold clocks, raw map ranges,
// and deliberate sealed-mutation probes.
func RunPackage(pkg *load.Package) ([]analysis.Posn, error) {
	var diags []analysis.Posn
	for _, a := range Analyzers {
		if !Applies(a, pkg.ImportPath) {
			continue
		}
		rule := a.Name
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				diags = append(diags, analysis.Posn{
					Pos:     pkg.Fset.Position(d.Pos),
					Rule:    rule,
					Message: d.Message,
				})
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	directives, problems := allow.Collect(pkg.Fset, pkg.Files, KnownRules())
	diags = allow.Filter(diags, directives)
	diags = append(diags, problems...)
	kept := diags[:0]
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags, nil
}
