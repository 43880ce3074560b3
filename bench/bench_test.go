package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantiles(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := median(ten); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := p90(ten); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ten, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates below two points
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if median(nil) != 0 || p90(nil) != 0 {
		t.Error("quantiles of no samples should be 0")
	}
}

func TestSelfTimes(t *testing.T) {
	ev := func(name string, tid int, ts, dur float64) traceEvent {
		return traceEvent{Name: name, Ph: "X", Tid: tid, Ts: ts, Dur: &dur}
	}
	got := selfTimes([]traceEvent{
		ev("parent", 1, 0, 10),
		ev("a", 1, 1, 3),     // [1, 4]
		ev("b", 1, 3, 3),     // [3, 6] overlaps a
		ev("a.kid", 1, 1, 1), // [1, 2] inside a
		ev("other", 2, 0, 10),
		ev("same", 3, 20, 10),  // two spans on one interval:
		ev("same2", 3, 20, 10), // the earlier is the parent
	})
	want := map[laneSpan]float64{
		{1, "parent"}: 10 - 5, // children cover [1, 6] once
		{1, "a"}:      3 - 1,
		{1, "b"}:      3,
		{1, "a.kid"}:  1,
		{2, "other"}:  10,
		{3, "same"}:   0,
		{3, "same2"}:  10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v\nwant %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{1, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"faster", base, scaled(0.8), "better"},
		{"same", base, base, "unchanged"},
		{"slower within bound", base, scaled(1.05), "unchanged"},
		{"slower beyond bound", base, scaled(1.2), "worse"},
		{"noise wider than bound", noisy, scaled(1.05), "unresolved"},
	} {
		if got := verdict(c.base, c.head, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestECOStreamValid(t *testing.T) {
	d, err := generate("ibm01", 16, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	chipW, chipH := float64(d.Grid.ChipW()), float64(d.Grid.ChipH())
	streams := map[int64][]string{}
	for _, seed := range []int64{1, 2} {
		names := map[string]bool{}
		for k, delta := range ecoStream(seed, d, 40) {
			if n := len(delta.Move) + len(delta.Add) + len(delta.Remove); n < 1 || n > 3 {
				t.Errorf("seed %d delta %d: %d edits, want 1-3", seed, k, n)
			}
			if _, err := delta.Apply(d.Nets); err != nil {
				t.Fatalf("seed %d delta %d: %v", seed, k, err)
			}
			ids := map[int]bool{}
			for _, id := range delta.Remove {
				ids[id] = true
			}
			for _, m := range delta.Move {
				if ids[m.ID] {
					t.Errorf("seed %d delta %d edits net %d twice", seed, k, m.ID)
				}
				ids[m.ID] = true
				for _, p := range m.Pins {
					if x, y := float64(p.Loc.X), float64(p.Loc.Y); x < 0 || x >= chipW || y < 0 || y >= chipH {
						t.Errorf("seed %d delta %d: moved pin %v outside the chip", seed, k, p.Loc)
					}
				}
				if d.Grid.RegionOf(m.Pins[0].Loc) == d.Grid.RegionOf(d.Nets.Nets[m.ID].Pins[0].Loc) {
					t.Errorf("seed %d delta %d: move of net %d stays in its source region", seed, k, m.ID)
				}
			}
			for _, a := range delta.Add {
				if names[a.Name] {
					t.Errorf("seed %d: add name %q repeats", seed, a.Name)
				}
				names[a.Name] = true
				for _, p := range a.Pins {
					if x, y := float64(p.Loc.X), float64(p.Loc.Y); x < 0 || x >= chipW || y < 0 || y >= chipH {
						t.Errorf("seed %d delta %d: added pin %v outside the chip", seed, k, p.Loc)
					}
				}
			}
			for _, id := range delta.Remove {
				if len(d.Nets.Nets[id].Pins) < 2 {
					t.Errorf("seed %d delta %d: removes net %d, which has no sink", seed, k, id)
				}
			}
			data, err := json.Marshal(delta)
			if err != nil {
				t.Fatal(err)
			}
			streams[seed] = append(streams[seed], string(data))
		}
	}
	if reflect.DeepEqual(streams[1], streams[2]) {
		t.Error("seeds 1 and 2 gave the same stream")
	}
	again, err := json.Marshal(ecoStream(1, d, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != streams[1][0] {
		t.Error("seed 1 did not reproduce its stream")
	}
}

// TestCommittedDigests checks the committed seed-1 digests cover every
// workload input.
func TestCommittedDigests(t *testing.T) {
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		t.Fatal(err)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range workloads {
		want := 1
		if w.name == "eco-stream" {
			want = ecoStreamLen
		}
		if len(all[w.name]) != want {
			t.Errorf("%s: %d committed digests, want %d", w.name, len(all[w.name]), want)
		}
		for _, d := range all[w.name] {
			if !hex.MatchString(d) {
				t.Errorf("%s: malformed digest %q", w.name, d)
			}
		}
	}
}

// TestSmoke runs every workload at scale 16 with two timed ops, untraced
// and traced, and checks that the metrics are exactly the ones
// BENCHMARK.json names, with its units, and that no output was wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		t.Fatal(err)
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range bs.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bs.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	ctx := context.Background()
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 1, workers: runtime.NumCPU(), scratch: t.TempDir(), smoke: true}
			opts := runOpts{trace: traced}
			want := wantE2E
			if traced {
				opts.traceOut = filepath.Join(t.TempDir(), "trace.json")
				want = wantLayer
			}
			res, err := runWorkload(ctx, sp, e, opts, testWriter{t})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", sp.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s in %s, BENCHMARK.json says %s", sp.name, traced, name, m.Unit, unit)
				}
			}
			for name, m := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", sp.name, traced, name)
				}
				if !nameRe.MatchString(name) {
					t.Errorf("%s: malformed metric name %q", sp.name, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", sp.name, name, m.Value)
				}
			}
			if traced {
				checkTrace(t, sp.name, opts.traceOut)
			}
		}
	}
}

func checkTrace(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(data); err != nil {
		t.Errorf("%s: trace: %v", workload, err)
	}
	for span := range spanMetric {
		if !obs.TraceHasSpan(data, span) {
			t.Errorf("%s: trace has no %s span", workload, span)
		}
	}
	if workload != "grid12" && !obs.TraceHasSpan(data, "core.refine") {
		t.Errorf("%s: trace has no phase split under the flow span", workload)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// TestDetcheckClean runs the repository's determinism lint suite over the
// benchmark's own package.
func TestDetcheckClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package")
	}
	pkgs, err := load.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s: %v", pkg.ImportPath, pkg.TypeErrors)
		}
		diags, err := lint.RunPackage(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
