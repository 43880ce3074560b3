package report

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ibm"
	"repro/internal/keff"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// pipelineDesign builds a compact random design, mirroring the core test
// fixtures, for end-to-end determinism runs.
func pipelineDesign(t *testing.T, nNets int, rate float64, seed int64) *core.Design {
	t.Helper()
	g, err := grid.New(8, 8, 100, 100, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	clamp := func(v float64) geom.Micron {
		if v < 0 {
			v = 0
		}
		if v > 799 {
			v = 799
		}
		return geom.Micron(v)
	}
	nets := make([]netlist.Net, nNets)
	for i := range nets {
		np := 2 + rng.Intn(3)
		pins := make([]netlist.Pin, np)
		cx, cy := rng.Float64()*800, rng.Float64()*800
		for j := range pins {
			pins[j] = netlist.Pin{Loc: geom.MicronPoint{
				X: clamp(cx + rng.NormFloat64()*150),
				Y: clamp(cy + rng.NormFloat64()*150),
			}}
		}
		nets[i] = netlist.Net{ID: i, Pins: pins}
	}
	return &core.Design{
		Name: "det",
		Nets: &netlist.Netlist{Nets: nets, Sensitivity: netlist.NewHashSensitivity(uint64(seed), rate)},
		Grid: g,
		Rate: rate,
	}
}

// renderAll runs every flow at the given worker count and renders the full
// report (Tables 1–3, deltas, CSV) with runtimes zeroed — runtime is the
// one field allowed to differ between worker counts.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	set := NewSet()
	designs := []*core.Design{
		pipelineDesign(t, 70, 0.3, 5),
		pipelineDesign(t, 70, 0.5, 11),
	}
	// A scaled IBM circuit exercises the full-chip path (multi-region trees,
	// Phase III refinement pressure) where tie-break ordering bugs hide.
	profile, err := ibm.ProfileByName("ibm01")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: 16, SensRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	designs = append(designs, &core.Design{Name: "ibm01", Nets: ckt.Nets, Grid: ckt.Grid, Rate: 0.5})
	for _, d := range designs {
		r, err := core.NewRunner(d, core.Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []core.Flow{core.FlowIDNO, core.FlowISINO, core.FlowGSINO} {
			o, err := r.Run(f)
			if err != nil {
				t.Fatal(err)
			}
			o.Runtime = 0
			set.Add(o)
		}
	}
	var b strings.Builder
	set.Table1(&b)
	set.Table2(&b)
	set.Table3(&b)
	set.Deltas(&b)
	set.CSV(&b)
	return b.String()
}

// gsinoFingerprint runs the full GSINO pipeline on a refinement-heavy
// scaled ibm01 and renders everything a worker count or tracer could
// possibly disturb: the report bytes plus the outcome fields the tables
// omit (refinement counters included — Phase III's wave decomposition is
// part of the determinism contract). Wall-clock fields (Runtime, Phases)
// and scheduling-dependent throughput counters (Engine, Cache lookup
// totals) are zeroed; everything else must be byte-identical.
func gsinoFingerprint(t *testing.T, seed int64, workers int, trace *obs.Tracer) string {
	t.Helper()
	return fingerprint(gsinoOutcome(t, seed, workers, trace))
}

// gsinoOutcome runs the full GSINO pipeline on a refinement-heavy scaled
// ibm01 at the given worker count.
func gsinoOutcome(t *testing.T, seed int64, workers int, trace *obs.Tracer) *core.Outcome {
	t.Helper()
	profile, err := ibm.ProfileByName("ibm01")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: seed, Scale: 16, SensRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewRunner(&core.Design{Name: "ibm01", Nets: ckt.Nets, Grid: ckt.Grid, Rate: 0.5},
		core.Params{Workers: workers, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	o, err := r.Run(core.FlowGSINO)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// fingerprint renders o as gsinoFingerprint describes.
func fingerprint(o *core.Outcome) string {
	o.Runtime = 0
	o.Phases = obs.PhaseTimes{}
	o.Engine = engine.Stats{}  // scheduling-dependent throughput counters only
	o.Cache = keff.CacheInfo{} // lookup totals are schedule-dependent
	set := NewSet()
	set.Add(o)
	var b strings.Builder
	set.Table1(&b)
	set.Table2(&b)
	set.Table3(&b)
	set.CSV(&b)
	fmt.Fprintf(&b, "outcome: %+v\n", *o)
	return b.String()
}

// TestRefineWorkerInvariance pins Phase III's parallel refinement to the
// engine's determinism contract: the full GSINO pipeline — conflict-graph
// repair waves and speculative pass 2 included — must produce identical
// refinement counters, reports and outcome fields at every worker count,
// on several seeds with real refinement pressure. One worker is the
// serial reference: the same pool, one task at a time.
func TestRefineWorkerInvariance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ref := gsinoOutcome(t, seed, 1, nil)
		if ref.Refine.Waves == 0 {
			t.Fatalf("seed %d: no repair waves; the fixture lost its refinement pressure", seed)
		}
		refRefine, refResolves, refUnfixable := ref.Refine, ref.Refinements, ref.Unfixable
		seq := fingerprint(ref)
		for _, workers := range []int{2, 4, 8} {
			o := gsinoOutcome(t, seed, workers, nil)
			if o.Refine != refRefine || o.Refinements != refResolves || o.Unfixable != refUnfixable {
				t.Errorf("seed %d workers %d: refine stats %+v (resolves %d, unfixable %d), 1 worker %+v (resolves %d, unfixable %d)",
					seed, workers, o.Refine, o.Refinements, o.Unfixable, refRefine, refResolves, refUnfixable)
			}
			if par := fingerprint(o); par != seq {
				t.Errorf("seed %d: GSINO outcome with %d workers differs from 1 worker:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					seed, workers, seq, workers, par)
			}
		}
	}
}

// TestTraceInvariance pins observability to its off-the-result-path
// contract (DESIGN.md §9): the full GSINO pipeline must produce
// byte-identical reports and outcome fields with a nil tracer and an
// enabled tracer, at one worker and at several — and the enabled run must
// actually have recorded a valid trace with all three phase spans.
func TestTraceInvariance(t *testing.T) {
	const seed = 2
	base := gsinoFingerprint(t, seed, 1, nil)
	for _, workers := range []int{1, 4} {
		if workers > 1 {
			if got := gsinoFingerprint(t, seed, workers, nil); got != base {
				t.Errorf("workers=%d: untraced outcome differs from one worker:\n--- 1 ---\n%s\n--- %d ---\n%s", workers, base, workers, got)
			}
		}
		enabled := obs.New()
		if got := gsinoFingerprint(t, seed, workers, enabled); got != base {
			t.Errorf("workers=%d: enabled tracer changed the outcome:\n--- nil ---\n%s\n--- enabled ---\n%s", workers, base, got)
		}
		var b strings.Builder
		if err := enabled.WriteJSON(&b); err != nil {
			t.Fatalf("workers=%d: WriteJSON: %v", workers, err)
		}
		data := []byte(b.String())
		stats, err := obs.ValidateTrace(data)
		if err != nil {
			t.Fatalf("workers=%d: invalid trace: %v", workers, err)
		}
		if stats.Complete == 0 {
			t.Errorf("workers=%d: enabled trace recorded no complete spans", workers)
		}
		for _, span := range []string{"phase I: route", "phase II: order", "phase III: refine"} {
			if !obs.TraceHasSpan(data, span) {
				t.Errorf("workers=%d: trace is missing span %q", workers, span)
			}
		}
	}
}

// TestParallelPipelineMatchesSequentialReport is the engine's determinism
// contract end to end: the full pipeline — Phase I sharded iterative
// deletion (tile groups drained on the pool, boundary reconciliation
// included), Phase II SINO, Phase III refinement — run with one worker and
// with many workers must render byte-identical reports.
func TestParallelPipelineMatchesSequentialReport(t *testing.T) {
	seq := renderAll(t, 1)
	for _, workers := range []int{4, 8} {
		if par := renderAll(t, workers); par != seq {
			t.Errorf("report with %d workers differs from sequential run:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, seq, workers, par)
		}
	}
}
