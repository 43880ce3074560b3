package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/load"
)

// TestAllowDirectiveSemantics pins the //detcheck:allow contract:
// trailing directives cover their own line only, standalone directives
// cover exactly the next line, justifications are mandatory, and rule
// names are validated — all through the same pipeline the driver runs.
func TestAllowDirectiveSemantics(t *testing.T) {
	analysistest.Run(t, "testdata/src/allowtest", lint.Analyzers...)
}

// TestApplies pins the package-scoping policy.
func TestApplies(t *testing.T) {
	byName := map[string]bool{}
	for _, a := range lint.Analyzers {
		byName[a.Name] = true
	}
	for _, want := range []string{"maporder", "wallclock", "sealedmut", "floatorder"} {
		if !byName[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
	for _, a := range lint.Analyzers {
		switch a.Name {
		case "sealedmut":
			if lint.Applies(a, "repro/internal/artifact") {
				t.Error("sealedmut must not run on the artifact package itself")
			}
			for _, pkg := range []string{"repro/internal/core", "repro/internal/keff", "repro/cmd/gsino"} {
				if !lint.Applies(a, pkg) {
					t.Errorf("sealedmut should run on %s", pkg)
				}
			}
		default:
			for _, pkg := range []string{
				"repro/internal/core", "repro/internal/route", "repro/internal/sino",
				"repro/internal/sched", "repro/internal/artifact", "repro/internal/report",
				"repro/internal/engine", "repro/internal/keff", "repro/internal/budget",
				"repro/internal/grid", "repro/internal/steiner", "repro/internal/netlist",
				"repro/internal/ibm", "repro/internal/geom", "repro/internal/tech",
				"repro/internal/rlc", "repro/internal/mna", "repro/internal/orderutil",
				"repro/internal/newpkg", // a new internal package is covered by default
			} {
				if !lint.Applies(a, pkg) {
					t.Errorf("%s should run on result-path package %s", a.Name, pkg)
				}
			}
			for _, pkg := range []string{"repro/internal/obs", "repro/cmd/gsino", "repro/examples/fullchip", "repro/bench"} {
				if lint.Applies(a, pkg) {
					t.Errorf("%s should not run on off-result-path package %s", a.Name, pkg)
				}
			}
			// go vet presents test units with decorated paths.
			if !lint.Applies(a, "repro/internal/core [repro/internal/core.test]") {
				t.Errorf("%s should run on the core test unit", a.Name)
			}
		}
	}
}

// TestSuiteCleanOnTree is the static half of the determinism contract's
// acceptance gate: the suite must run clean over the entire repository
// (true positives get fixed, sanctioned sites carry justified
// //detcheck:allow directives). CI enforces the same property through
// `go vet -vettool=detcheck ./...`; this test enforces it at plain
// `go test ./...` time.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	pkgs, err := load.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzed := 0
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", pkg.ImportPath, pkg.TypeErrors)
		}
		diags, err := pkg2diags(pkg)
		if err != nil {
			t.Fatal(err)
		}
		analyzed++
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
	if analyzed < 20 {
		t.Fatalf("analyzed only %d packages; ./... discovery looks broken", analyzed)
	}
}

func pkg2diags(pkg *load.Package) ([]string, error) {
	diags, err := lint.RunPackage(pkg)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.String()
	}
	return out, nil
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
