package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ibm"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/sino"
)

// smallDesign builds a compact random design for flow tests.
func smallDesign(t testing.TB, nNets int, rate float64, seed int64) *Design {
	t.Helper()
	g, err := grid.New(8, 8, 100, 100, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nets := make([]netlist.Net, nNets)
	for i := range nets {
		np := 2 + rng.Intn(3)
		pins := make([]netlist.Pin, np)
		cx, cy := rng.Float64()*800, rng.Float64()*800
		for j := range pins {
			pins[j] = netlist.Pin{Loc: geom.MicronPoint{
				X: geom.Micron(clampF(cx+rng.NormFloat64()*150, 0, 799)),
				Y: geom.Micron(clampF(cy+rng.NormFloat64()*150, 0, 799)),
			}}
		}
		nets[i] = netlist.Net{ID: i, Pins: pins}
	}
	return &Design{
		Name: "test",
		Nets: &netlist.Netlist{Nets: nets, Sensitivity: netlist.NewHashSensitivity(uint64(seed), rate)},
		Grid: g,
		Rate: rate,
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(nil, Params{}); err == nil {
		t.Error("nil design: want error")
	}
	d := smallDesign(t, 10, 0.3, 1)
	d.Nets.Sensitivity = nil
	if _, err := NewRunner(d, Params{}); err == nil {
		t.Error("netlist without sensitivity: want error")
	}
	// A NaN threshold used to pass the budgeter's check and panic in the
	// LSK table lookup of the first GSINO flow.
	d = smallDesign(t, 10, 0.3, 1)
	for _, v := range []float64{-0.15, math.NaN(), math.Inf(1)} {
		if _, err := NewRunner(d, Params{VThreshold: v}); err == nil {
			t.Errorf("threshold %g: want error", v)
		}
	}
}

func TestUnknownFlow(t *testing.T) {
	r, err := NewRunner(smallDesign(t, 10, 0.3, 1), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(Flow("bogus")); err == nil {
		t.Error("unknown flow: want error")
	}
}

func TestIDNONeverInsertsShields(t *testing.T) {
	r, err := NewRunner(smallDesign(t, 60, 0.4, 2), Params{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(FlowIDNO)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shields != 0 {
		t.Errorf("ID+NO inserted %d shields", out.Shields)
	}
	if out.TotalNets != 60 {
		t.Errorf("TotalNets = %d", out.TotalNets)
	}
}

func TestSINOFlowsEliminateViolations(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		r, err := NewRunner(smallDesign(t, 80, 0.5, seed), Params{})
		if err != nil {
			t.Fatal(err)
		}
		gs, err := r.Run(FlowGSINO)
		if err != nil {
			t.Fatal(err)
		}
		if gs.Violations != 0 {
			t.Errorf("seed %d: GSINO left %d violations", seed, gs.Violations)
		}
		is, err := r.Run(FlowISINO)
		if err != nil {
			t.Fatal(err)
		}
		if is.Violations != 0 {
			t.Errorf("seed %d: iSINO left %d violations", seed, is.Violations)
		}
	}
}

func TestISINOWirelengthMatchesIDNO(t *testing.T) {
	// "applying SINO within each region after global routing does not
	// change the wire length" (paper §4).
	r, err := NewRunner(smallDesign(t, 70, 0.3, 3), Params{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.Run(FlowIDNO)
	if err != nil {
		t.Fatal(err)
	}
	is, err := r.Run(FlowISINO)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalWL != is.TotalWL {
		t.Errorf("iSINO wirelength %v differs from ID+NO %v", is.TotalWL, base.TotalWL)
	}
}

func TestShieldsInflateArea(t *testing.T) {
	r, err := NewRunner(smallDesign(t, 90, 0.5, 4), Params{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.Run(FlowIDNO)
	if err != nil {
		t.Fatal(err)
	}
	is, err := r.Run(FlowISINO)
	if err != nil {
		t.Fatal(err)
	}
	if is.Shields == 0 {
		t.Skip("no shields needed at this density; nothing to compare")
	}
	if is.Area.Product() < base.Area.Product() {
		t.Errorf("area shrank with shields: %v < %v", is.Area, base.Area)
	}
}

func TestDeterministicOutcomes(t *testing.T) {
	d := smallDesign(t, 50, 0.3, 5)
	r1, err := NewRunner(d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := r1.Run(FlowGSINO)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r1.Run(FlowGSINO)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != b.Violations || a.TotalWL != b.TotalWL || a.Shields != b.Shields {
		t.Errorf("GSINO not deterministic: %+v vs %+v", a, b)
	}
}

// TestEvalStatsInvariant requires a GSINO flow's evaluator counters, the
// full passes' pair counts included, to be identical at 1 and 4 workers
// and with the artifact store off and on, a warm second run included:
// they count the work of the solve schedule, which neither setting moves.
// The flow must carry pair values over shield insertions, or the
// counters would hold nothing to compare.
func TestEvalStatsInvariant(t *testing.T) {
	p, err := ibm.ProfileByName("ibm01")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := ibm.Generate(p, ibm.Options{Seed: 2, Scale: 16, SensRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d := &Design{Name: "ibm01", Nets: ckt.Nets, Grid: ckt.Grid, Rate: 0.5}
	var ref *sino.EvalStats
	for _, workers := range []int{1, 4} {
		for _, store := range []bool{false, true} {
			params := Params{Workers: workers}
			if store {
				params.Artifacts = artifact.NewStore(0)
			}
			r, err := NewRunner(d, params)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				o, err := r.Run(FlowGSINO)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					if o.Eval.PairsComputed == 0 || o.Eval.PairsCarried == 0 {
						t.Fatalf("fixture carries no pair values: %+v", o.Eval)
					}
					ref = &o.Eval
				} else if o.Eval != *ref {
					t.Errorf("workers %d, store %v, run %d: eval stats %+v, want %+v", workers, store, run, o.Eval, *ref)
				}
			}
		}
	}
}

func TestOverheadHelpers(t *testing.T) {
	base := &Outcome{Area: grid.Area{W: 100, H: 100}, TotalWL: 1000}
	o := &Outcome{Area: grid.Area{W: 110, H: 100}, TotalWL: 1100}
	if got := o.AreaOverheadPct(base); got < 9.99 || got > 10.01 {
		t.Errorf("AreaOverheadPct = %g, want 10", got)
	}
	if got := o.WLOverheadPct(base); got < 9.99 || got > 10.01 {
		t.Errorf("WLOverheadPct = %g, want 10", got)
	}
	zero := &Outcome{}
	if o.AreaOverheadPct(zero) != 0 || o.WLOverheadPct(zero) != 0 {
		t.Error("overhead vs zero base should be 0")
	}
}

// TestOutcomeDetail sanity-checks the gsino -v renderer: every line is
// prefixed, the headline counters and phase split appear, re-solves come
// from Refinements, and the disk and Phase III lines appear only when that
// machinery ran.
func TestOutcomeDetail(t *testing.T) {
	ms := time.Millisecond
	o := &Outcome{
		SegTracks: 4022,
		Runtime:   37 * ms,
		Phases:    obs.PhaseTimes{Route: 13 * ms, Order: 17 * ms, Refine: 4 * ms},
		Engine:    engine.Stats{Workers: 4, Jobs: 344, Tracks: 8580, Tasks: 55, Waves: 7},
		Route:     route.RunStats{Shards: 40, LargestShard: 38},
	}
	d := o.Detail("  ")
	for _, absent := range []string{"phase III", "artifact disk"} {
		if strings.Contains(d, absent) {
			t.Errorf("Detail shows %q with nothing to report:\n%s", absent, d)
		}
	}
	o.Refinements = 184
	o.Refine = RefineStats{Waves: 6, MaxWave: 2, MaxColors: 7, Relaxed: 2, Accepted: 1, Reverted: 1}
	o.Artifact.Disk.Hits = 1
	o.Eval = sino.EvalStats{Binds: 9, Loads: 8, Edits: 7, Rollbacks: 6, PairsComputed: 500, PairsCarried: 300}
	d = o.Detail("  ")
	for _, want := range []string{
		"eval pool: 9 binds, 8 loads, 7 incremental edits, 6 rollbacks; full passes: 500 pair values computed, 300 carried\n",
		"phases: route 13ms, order 17ms, refine 4ms (total 37ms)",
		"engine: 4 workers, 344 instances solved (8580 tracks), 55 tasks in 7 waves\n",
		"phase I: 40 routing shards (largest 38 nets)",
		"artifact disk: 1 hits, 0 misses",
		"phase III: 6 repair waves (largest 2 nets, 7 colors max), 184 re-solves",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("Detail missing %q in:\n%s", want, d)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(d, "\n"), "\n") {
		if !strings.HasPrefix(line, "  ") {
			t.Errorf("Detail line not prefixed: %q", line)
		}
	}
}

// TestPaperShapeSmallIBM runs all three flows on a scaled ibm01 and asserts
// the paper's qualitative results: ID+NO violates in double-digit
// percentages, SINO flows are clean, iSINO pays the largest area, GSINO
// sits between, and wirelength overhead stays small.
func TestPaperShapeSmallIBM(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full flows")
	}
	p, err := ibm.ProfileByName("ibm01")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := ibm.Generate(p, ibm.Options{Seed: 1, Scale: 8, SensRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(&Design{Name: "ibm01", Nets: ckt.Nets, Grid: ckt.Grid, Rate: 0.3}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.Run(FlowIDNO)
	if err != nil {
		t.Fatal(err)
	}
	is, err := r.Run(FlowISINO)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := r.Run(FlowGSINO)
	if err != nil {
		t.Fatal(err)
	}
	if base.ViolationPct < 5 || base.ViolationPct > 40 {
		t.Errorf("ID+NO violation rate %.1f%% outside the paper-like band", base.ViolationPct)
	}
	if is.Violations != 0 || gs.Violations != 0 {
		t.Errorf("SINO flows left violations: iSINO %d, GSINO %d", is.Violations, gs.Violations)
	}
	if gs.AreaOverheadPct(base) > is.AreaOverheadPct(base)+1e-9 {
		t.Errorf("GSINO area overhead %.2f%% exceeds iSINO %.2f%%",
			gs.AreaOverheadPct(base), is.AreaOverheadPct(base))
	}
	if wl := gs.WLOverheadPct(base); wl < 0 || wl > 20 {
		t.Errorf("GSINO wirelength overhead %.2f%% outside [0%%, 20%%]", wl)
	}
}

func TestCongestionBudgetingStillEliminatesViolations(t *testing.T) {
	// The §5 alternative budgeting policy must preserve correctness: GSINO
	// still ends with zero violations; only the shield distribution shifts.
	d := smallDesign(t, 90, 0.5, 11)
	plain, err := NewRunner(d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := NewRunner(d, Params{CongestionBudgeting: true})
	if err != nil {
		t.Fatal(err)
	}
	po, err := plain.Run(FlowGSINO)
	if err != nil {
		t.Fatal(err)
	}
	ao, err := alt.Run(FlowGSINO)
	if err != nil {
		t.Fatal(err)
	}
	if po.Violations != 0 || ao.Violations != 0 {
		t.Errorf("violations: plain %d, congestion-budgeted %d; want 0", po.Violations, ao.Violations)
	}
	if ao.TotalWL != po.TotalWL {
		t.Errorf("budgeting policy changed routing: %v vs %v", ao.TotalWL, po.TotalWL)
	}
}

func TestNonUniformConstraintSupport(t *testing.T) {
	// The paper's implementation "can handle non-uniform crosstalk
	// constraints": loosening every threshold must not increase violations.
	d := smallDesign(t, 80, 0.5, 6)
	strict, err := NewRunner(d, Params{VThreshold: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := NewRunner(d, Params{VThreshold: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	so, err := strict.Run(FlowIDNO)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := loose.Run(FlowIDNO)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Violations > so.Violations {
		t.Errorf("looser threshold produced more violations: %d > %d", lo.Violations, so.Violations)
	}
}
