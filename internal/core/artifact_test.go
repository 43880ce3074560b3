package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/artifact"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
)

// sameReport asserts two outcomes agree on every metric that reaches the
// deterministic tables and CSV. Throughput counters (Engine, Eval,
// Artifact, ECO, Cache) and timings are deliberately excluded: they
// describe how the work was done, which caching changes by design.
func sameReport(t *testing.T, label string, a, b *Outcome) {
	t.Helper()
	if a.Flow != b.Flow || a.TotalNets != b.TotalNets {
		t.Fatalf("%s: outcomes for different problems: %s/%d vs %s/%d",
			label, a.Flow, a.TotalNets, b.Flow, b.TotalNets)
	}
	if a.Violations != b.Violations || a.ViolationPct != b.ViolationPct {
		t.Errorf("%s %s: violations %d (%.4f%%) vs %d (%.4f%%)",
			label, a.Flow, a.Violations, a.ViolationPct, b.Violations, b.ViolationPct)
	}
	if a.TotalWL != b.TotalWL || a.AvgWL != b.AvgWL {
		t.Errorf("%s %s: wirelength %v/%v vs %v/%v", label, a.Flow, a.TotalWL, a.AvgWL, b.TotalWL, b.AvgWL)
	}
	if a.Area != b.Area || a.NominalArea != b.NominalArea {
		t.Errorf("%s %s: area %v vs %v", label, a.Flow, a.Area, b.Area)
	}
	if a.Shields != b.Shields || a.SegTracks != b.SegTracks {
		t.Errorf("%s %s: shields/segs %d/%d vs %d/%d", label, a.Flow, a.Shields, a.SegTracks, b.Shields, b.SegTracks)
	}
	if a.Refinements != b.Refinements || a.Unfixable != b.Unfixable {
		t.Errorf("%s %s: refinements %d/%d vs %d/%d", label, a.Flow, a.Refinements, a.Unfixable, b.Refinements, b.Unfixable)
	}
	if a.Congestion != b.Congestion {
		t.Errorf("%s %s: congestion %+v vs %+v", label, a.Flow, a.Congestion, b.Congestion)
	}
	if a.Route != b.Route {
		t.Errorf("%s %s: route stats %+v vs %+v", label, a.Flow, a.Route, b.Route)
	}
}

var allFlows = []Flow{FlowIDNO, FlowISINO, FlowGSINO}

// TestArtifactStoreRouteOncePerConfig is the tentpole contract: a runner
// with a store routes a three-flow cell at most twice (shield-aware and
// not — ID+NO and iSINO share the unshielded route), and every outcome is
// identical to the cache-off run.
func TestArtifactStoreRouteOncePerConfig(t *testing.T) {
	d := smallDesign(t, 80, 0.4, 7)
	store := artifact.NewStore(0)
	cached, err := NewRunner(d, Params{Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewRunner(d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range allFlows {
		co, err := cached.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		po, err := plain.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, "cached vs plain", co, po)
	}
	s := store.Stats()
	if s.Misses != 2 || s.Hits != 1 {
		t.Errorf("three flows: %d misses, %d hits; want 2 misses (unshielded + shield-aware) and 1 hit", s.Misses, s.Hits)
	}
	if store.Len() != 2 {
		t.Errorf("store holds %d artifacts, want 2", store.Len())
	}
}

// TestCachedArtifactsSurviveFlows asserts the sealing guard end to end:
// after Phases II and III consumed the cached results, the sealed
// artifacts still verify — i.e. the downstream pipeline never mutated the
// shared *route.Result.
func TestCachedArtifactsSurviveFlows(t *testing.T) {
	d := smallDesign(t, 80, 0.5, 9)
	store := artifact.NewStore(0)
	r, err := NewRunner(d, Params{Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range allFlows {
		if _, err := r.Run(f); err != nil {
			t.Fatal(err)
		}
	}
	nets := r.netsForRouting()
	for _, shield := range []bool{false, true} {
		key := artifact.KeyFor(d.Grid, route.Config{ShieldAware: shield}, route.ShardConfig{}, nets)
		art := store.Peek(key)
		if art == nil {
			t.Fatalf("shieldAware=%v: no artifact under the recomputed key", shield)
		}
		if _, err := art.Result(); err != nil {
			t.Errorf("shieldAware=%v: cached artifact mutated by the flows: %v", shield, err)
		}
		if art.Drain() == nil {
			t.Errorf("shieldAware=%v: artifact carries no drain state for ECO resume", shield)
		}
	}
}

// TestBuildStateDoesNotMutateResult pins the immutability assumption the
// store rests on at its source: buildState, the solver, and refinement
// leave the routed result bit-identical (verified by fingerprint).
func TestBuildStateDoesNotMutateResult(t *testing.T) {
	d := smallDesign(t, 70, 0.5, 10)
	r, err := NewRunner(d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := r.routeAll(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	fp := artifact.Fingerprint(res)
	st := r.buildState(res, budgetManhattan)
	if err := st.solveAll(ctx, false); err != nil {
		t.Fatal(err)
	}
	if _, err := st.refine(ctx); err != nil {
		t.Fatal(err)
	}
	_ = st.outcome(FlowGSINO)
	if artifact.Fingerprint(res) != fp {
		t.Fatal("buildState/solveAll/refine mutated the routed result")
	}
}

// testDelta is a representative ECO: move a net, drop one, add one.
func testDelta() artifact.Delta {
	return artifact.Delta{
		Remove: []int{1},
		Move: []artifact.Move{{ID: 0, Pins: []netlist.Pin{
			{Loc: geom.MicronPoint{X: 60, Y: 70}},
			{Loc: geom.MicronPoint{X: 690, Y: 640}},
		}}},
		Add: []netlist.Net{{Pins: []netlist.Pin{
			{Loc: geom.MicronPoint{X: 120, Y: 520}},
			{Loc: geom.MicronPoint{X: 400, Y: 180}},
		}}},
	}
}

// TestECORunnerMatchesFromScratch is the end-to-end ECO contract: a runner
// resuming from the base design's warm artifacts produces outcomes
// identical to a from-scratch runner on the edited design, at several
// seeds and worker counts.
func TestECORunnerMatchesFromScratch(t *testing.T) {
	delta := testDelta()
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			base := smallDesign(t, 80, 0.4, seed)
			store := artifact.NewStore(0)
			p := Params{Workers: workers, Artifacts: store}
			baseR, err := NewRunner(base, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range allFlows {
				if _, err := baseR.Run(f); err != nil {
					t.Fatal(err)
				}
			}

			ecoR, err := NewECORunner(base, delta, p)
			if err != nil {
				t.Fatal(err)
			}
			edited, err := ApplyDelta(base, delta)
			if err != nil {
				t.Fatal(err)
			}
			refR, err := NewRunner(edited, Params{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range allFlows {
				eo, err := ecoR.Run(f)
				if err != nil {
					t.Fatal(err)
				}
				ro, err := refR.Run(f)
				if err != nil {
					t.Fatal(err)
				}
				sameReport(t, "eco vs scratch", eo, ro)
				if i == 0 && eo.ECO.EditedNets == 0 {
					t.Errorf("seed %d workers %d: first ECO flow shows no edited nets — resume did not run", seed, workers)
				}
			}
		}
	}
}

// TestECORunnerColdStore degrades gracefully: with no warm base artifact
// the ECO runner simply routes the edited design from scratch.
func TestECORunnerColdStore(t *testing.T) {
	base := smallDesign(t, 60, 0.4, 4)
	delta := testDelta()
	ecoR, err := NewECORunner(base, delta, Params{Artifacts: artifact.NewStore(0)})
	if err != nil {
		t.Fatal(err)
	}
	eo, err := ecoR.Run(FlowIDNO)
	if err != nil {
		t.Fatal(err)
	}
	if eo.ECO.EditedNets != 0 {
		t.Errorf("cold store: ECO accounting %+v, want zero (from-scratch route)", eo.ECO)
	}
	edited, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	refR, err := NewRunner(edited, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := refR.Run(FlowIDNO)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "cold eco vs scratch", eo, ro)
}

// TestApplyDeltaRejectsOffChipPins: a moved or added pin off the chip
// fails ApplyDelta and NewECORunner; pins on the chip boundary are
// accepted, and the edited design keeps the base's name, grid and rate.
func TestApplyDeltaRejectsOffChipPins(t *testing.T) {
	base := smallDesign(t, 20, 0.4, 4)
	w, h := base.Grid.ChipW(), base.Grid.ChipH()
	pins := func(x, y geom.Micron) []netlist.Pin {
		return []netlist.Pin{{Loc: geom.MicronPoint{X: x, Y: y}}, {Loc: geom.MicronPoint{X: 0, Y: 0}}}
	}
	for name, d := range map[string]artifact.Delta{
		"move far right": {Move: []artifact.Move{{ID: 0, Pins: pins(1e300, 0)}}},
		"move below":     {Move: []artifact.Move{{ID: 0, Pins: pins(10, -1)}}},
		"add above":      {Add: []netlist.Net{{Name: "eco0", Pins: pins(10, h+1)}}},
	} {
		if _, err := ApplyDelta(base, d); err == nil {
			t.Errorf("%s: off-chip pin accepted", name)
		}
		if _, err := NewECORunner(base, d, Params{}); err == nil {
			t.Errorf("%s: NewECORunner accepted an off-chip pin", name)
		}
	}
	edge := artifact.Delta{
		Move: []artifact.Move{{ID: 0, Pins: pins(w, h)}},
		Add:  []netlist.Net{{Name: "eco0", Pins: pins(0, h)}},
	}
	d, err := ApplyDelta(base, edge)
	if err != nil {
		t.Fatalf("pins on the chip boundary rejected: %v", err)
	}
	if d.Name != base.Name || d.Grid != base.Grid || d.Rate != base.Rate || len(d.Nets.Nets) != len(base.Nets.Nets)+1 {
		t.Errorf("edited design = %s/%p/%v with %d nets, want %s/%p/%v with %d",
			d.Name, d.Grid, d.Rate, len(d.Nets.Nets), base.Name, base.Grid, base.Rate, len(base.Nets.Nets)+1)
	}
}

// FuzzECOResume: any delta text either fails to parse or apply with an
// error, or resumes Phase I to exactly the route of the edited design
// from scratch — the same result fingerprint and the same drain-state
// bytes. The resume starts from the base drain state after an artifact
// encode/decode round trip, so the snapshot fields the decoder derives
// from pins are in the loop.
func FuzzECOResume(f *testing.F) {
	for _, seed := range []string{
		`{"move":[{"id":0,"pins":[[120,80],[440,360]]}],"remove":[1],"add":[{"name":"eco0","pins":[[60,60],[220,300]]}]}`,
		`{"remove":[3,5,7]}`,
		`{"move":[{"id":2,"pins":[[0,0],[800,800]]},{"id":9,"pins":[[410,410]]}]}`,
		`{"add":[{"name":"a","pins":[[400,400]]},{"name":"b","pins":[[0,0],[790,10],[10,790]]}]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	base := smallDesign(f, 40, 0.4, 3)
	g, cfg, scfg := base.Grid, route.Config{ShieldAware: true}, route.ShardConfig{}
	ctx := context.Background()
	fromScratch := func(nets []route.Net) (*route.Result, *route.DrainState, error) {
		r, err := route.NewRouter(g, cfg, nets)
		if err != nil {
			return nil, nil, err
		}
		return r.RunShardedState(ctx, nil, scfg)
	}
	baseNets := routeNetsFor(base)
	res, ds, err := fromScratch(baseNets)
	if err != nil {
		f.Fatal(err)
	}
	data, err := artifact.Encode(artifact.Seal(artifact.KeyFor(g, cfg, scfg, baseNets), res, ds))
	if err != nil {
		f.Fatal(err)
	}
	art, err := artifact.Decode(data)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		delta, err := artifact.ParseDelta(text)
		if err != nil {
			return
		}
		edited, err := ApplyDelta(base, delta)
		if err != nil {
			return
		}
		nets := routeNetsFor(edited)
		got, gotDS, _, err := route.RunShardedResume(ctx, g, cfg, nets, nil, scfg, art.Drain())
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		want, wantDS, err := fromScratch(nets)
		if err != nil {
			t.Fatalf("from scratch: %v", err)
		}
		if artifact.Fingerprint(got) != artifact.Fingerprint(want) {
			t.Fatal("resumed route differs from the route from scratch")
		}
		if !bytes.Equal(gotDS.AppendWire(nil), wantDS.AppendWire(nil)) {
			t.Fatal("resumed drain state differs from the one from scratch")
		}
	})
}
