package route

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
)

// mutateNets applies a deterministic pseudo-random edit script to base:
// a few nets move their pins, one collapses to a single-pin stub (the
// removal encoding core's artifact.Delta uses), two append, and the last
// net is dropped outright.
func mutateNets(seed int64, base []Net, cols, rows int) []Net {
	rng := rand.New(rand.NewSource(seed * 1000003))
	out := make([]Net, len(base))
	copy(out, base)
	randPins := func(np int) []geom.Point {
		pins := make([]geom.Point, np)
		for j := range pins {
			pins[j] = geom.Point{X: rng.Intn(cols), Y: rng.Intn(rows)}
		}
		return pins
	}
	for k := 0; k < 3; k++ {
		i := rng.Intn(len(out))
		out[i] = Net{ID: out[i].ID, Pins: randPins(2 + rng.Intn(3)), Rate: out[i].Rate}
	}
	i := rng.Intn(len(out))
	out[i] = Net{ID: out[i].ID, Pins: out[i].Pins[:1:1], Rate: out[i].Rate}
	for k := 0; k < 2; k++ {
		out = append(out, Net{ID: len(out), Pins: randPins(2 + rng.Intn(2)), Rate: 0.3})
	}
	return out[:len(out)-1]
}

// TestECOResumeEquivalence is the ECO determinism contract: resuming an
// edited netlist from a DrainState must be byte-identical — trees and
// stats — to routing the edited netlist from scratch, at any worker
// count, across seeds and edit scripts. The DrainState the resume returns
// must encode to the same bytes as a from-scratch capture, and a second
// edit chained off it must hold too.
func TestECOResumeEquivalence(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ShieldAware: true}
	scfg := ShardConfig{}
	fromScratch := func(nets []Net) (*Result, *DrainState) {
		r, err := NewRouter(g, cfg, nets)
		if err != nil {
			t.Fatal(err)
		}
		res, ds, err := r.RunShardedState(context.Background(), nil, scfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, ds
	}
	chainReused := 0 // nets the chained resumes kept from their snapshot
	for seed := int64(1); seed <= 3; seed++ {
		base := randomNets(seed, 80, 16, 16)
		_, ds := fromScratch(base)
		edited := mutateNets(seed, base, 16, 16)
		ref, refDS := fromScratch(edited)

		var ds1 *DrainState
		for _, workers := range []int{0, 1, 4} {
			var pool Pool
			if workers > 0 {
				pool = engine.New(engine.Config{Workers: workers})
			}
			res, dsr, es, err := RunShardedResume(context.Background(), g, cfg, edited, pool, scfg, ds)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			resultsEqual(t, ref, res, true)
			if es.EditedNets == 0 || es.TilesInvalid == 0 {
				t.Fatalf("seed %d: edit script produced no invalidation: %+v", seed, es)
			}
			drainStatesEqual(t, refDS, dsr)
			ds1 = dsr
		}

		// Chain a second delta off the resume's own snapshot.
		edited2 := mutateNets(seed+100, edited, 16, 16)
		ref2, ref2DS := fromScratch(edited2)
		res2, ds2, es2, err := RunShardedResume(context.Background(), g, cfg, edited2, engine.New(engine.Config{Workers: 4}), scfg, ds1)
		if err != nil {
			t.Fatal(err)
		}
		chainReused += es2.NetsReused
		resultsEqual(t, ref2, res2, true)
		drainStatesEqual(t, ref2DS, ds2)
	}
	if chainReused == 0 {
		t.Fatal("no chained resume reused a tile; the reuse branch went untested")
	}
}

// drainStatesEqual compares two drain states by their wire encodings,
// which cover every field a resume reads.
func drainStatesEqual(t *testing.T, want, got *DrainState) {
	t.Helper()
	if !bytes.Equal(want.AppendWire(nil), got.AppendWire(nil)) {
		t.Fatal("drain state encodings differ")
	}
}

// TestECOResumeReusesCleanTiles pins the point of ECO: with two spatially
// disjoint net clusters, editing one must leave the other cluster's tiles
// replayed from the snapshot, not re-drained.
func TestECOResumeReusesCleanTiles(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	cluster := func(idBase, x0, y0 int) []Net {
		nets := make([]Net, 10)
		for i := range nets {
			pins := make([]geom.Point, 2+rng.Intn(2))
			for j := range pins {
				pins[j] = geom.Point{X: x0 + rng.Intn(4), Y: y0 + rng.Intn(4)}
			}
			nets[i] = Net{ID: idBase + i, Pins: pins, Rate: 0.3}
		}
		return nets
	}
	nets := append(cluster(0, 0, 0), cluster(10, 12, 12)...)
	r0, err := NewRouter(g, Config{ShieldAware: true}, nets)
	if err != nil {
		t.Fatal(err)
	}
	_, ds, err := r0.RunShardedState(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}

	edited := make([]Net, len(nets))
	copy(edited, nets)
	edited[0] = Net{ID: 0, Pins: []geom.Point{{X: 1, Y: 1}, {X: 3, Y: 2}}, Rate: 0.3}

	res, _, es, err := RunShardedResume(context.Background(), g, Config{ShieldAware: true}, edited, nil, ShardConfig{}, ds)
	if err != nil {
		t.Fatal(err)
	}
	refR, err := NewRouter(g, Config{ShieldAware: true}, edited)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refR.RunSharded(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, ref, res, true)
	if es.EditedNets != 1 {
		t.Fatalf("EditedNets = %d, want 1", es.EditedNets)
	}
	if es.TilesReused == 0 || es.NetsReused < 10 {
		t.Fatalf("edit in one cluster reused nothing: %+v", es)
	}
	if es.NetsRerouted == 0 {
		t.Fatalf("edit re-routed nothing: %+v", es)
	}
}

// TestECOResumeNoEdit: an identical netlist invalidates nothing and the
// replayed result matches the original run exactly.
func TestECOResumeNoEdit(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets := randomNets(5, 60, 16, 16)
	r0, err := NewRouter(g, Config{ShieldAware: true}, nets)
	if err != nil {
		t.Fatal(err)
	}
	base, ds, err := r0.RunShardedState(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, es, err := RunShardedResume(context.Background(), g, Config{ShieldAware: true}, nets, nil, ShardConfig{}, ds)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, base, res, true)
	if es.EditedNets != 0 || es.TilesInvalid != 0 || es.NetsRerouted != 0 {
		t.Fatalf("no-op delta still invalidated work: %+v", es)
	}
}

// TestECOResumeStateMismatch: resuming under a different grid or router
// config than the snapshot's must fail loudly, not silently produce a
// non-reproducible result. A grid of the same dimensions with other cell
// sizes or capacities is a different routing problem too.
func TestECOResumeStateMismatch(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets := randomNets(9, 40, 16, 16)
	r0, err := NewRouter(g, Config{ShieldAware: true}, nets)
	if err != nil {
		t.Fatal(err)
	}
	_, ds, err := r0.RunShardedState(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RunShardedResume(context.Background(), g, Config{ShieldAware: false}, nets, nil, ShardConfig{}, ds); err == nil {
		t.Fatal("config mismatch accepted")
	}
	g2, err := grid.New(12, 12, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets12 := randomNets(9, 40, 12, 12)
	if _, _, _, err := RunShardedResume(context.Background(), g2, Config{ShieldAware: true}, nets12, nil, ShardConfig{}, ds); err == nil {
		t.Fatal("grid mismatch accepted")
	}

	wide := randomNets(7, 120, 16, 16)
	r1, err := NewRouter(g, Config{ShieldAware: true}, wide)
	if err != nil {
		t.Fatal(err)
	}
	_, ds1, err := r1.RunShardedState(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []struct {
		cellW, cellH geom.Micron
		hc, vc       int
	}{{250, 40, 3, 3}, {100, 100, 4, 3}, {100, 100, 3, 2}} {
		g3, err := grid.New(16, 16, other.cellW, other.cellH, other.hc, other.vc)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := RunShardedResume(context.Background(), g3, Config{ShieldAware: true}, wide, nil, ShardConfig{}, ds1); err == nil {
			t.Fatalf("resume on %+v accepted a drain state routed on %+v", *g3, *g)
		}
	}
}

// TestECOResumeCancelMidResume: cancellation while the per-net state
// restore batch is in flight must surface context.Canceled and return no
// result — a half-invalidated resume must never escape.
func TestECOResumeCancelMidResume(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets := randomNets(13, 600, 16, 16) // multiple seed chunks
	r0, err := NewRouter(g, Config{ShieldAware: true}, nets)
	if err != nil {
		t.Fatal(err)
	}
	_, ds, err := r0.RunShardedState(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	edited := mutateNets(13, nets, 16, 16)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Batch 0 is the state-restore fan-out — cancel right before it.
	pool := &cancelPool{inner: engine.New(engine.Config{Workers: 2}), cancel: cancel, at: 0}
	res, _, _, err := RunShardedResume(ctx, g, Config{ShieldAware: true}, edited, pool, ShardConfig{}, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled resume returned a result")
	}
	if pool.calls == 0 {
		t.Fatal("resume never reached the pool; fixture drifted")
	}

	// A context cancelled before the call fails during invalidation.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	res, _, _, err = RunShardedResume(pre, g, Config{ShieldAware: true}, edited, nil, ShardConfig{}, ds)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled resume: res=%v err=%v", res, err)
	}
}
