package route

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
)

// randomNets builds a deterministic pseudo-random net list on a cols×rows
// grid.
func randomNets(seed int64, n, cols, rows int) []Net {
	rng := rand.New(rand.NewSource(seed))
	nets := make([]Net, n)
	for i := range nets {
		np := 2 + rng.Intn(3)
		pins := make([]geom.Point, np)
		for j := range pins {
			pins[j] = geom.Point{X: rng.Intn(cols), Y: rng.Intn(rows)}
		}
		nets[i] = Net{ID: i, Pins: pins, Rate: 0.3}
	}
	return nets
}

// resultsEqual compares two results byte-for-byte: trees, and run stats
// where requested.
func resultsEqual(t *testing.T, a, b *Result, withStats bool) {
	t.Helper()
	if !reflect.DeepEqual(a.Trees, b.Trees) {
		t.Fatalf("trees differ")
	}
	if withStats && a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

// centredNets builds n pseudo-random nets on a cols×rows grid, each with
// its pins' mirror images through the grid centre, so every net's
// bounding box is symmetric about the centre and all nets share the
// centre's tile.
func centredNets(seed int64, n, cols, rows int) []Net {
	nets := randomNets(seed, n, cols, rows)
	for i := range nets {
		for _, p := range nets[i].Pins {
			nets[i].Pins = append(nets[i].Pins, geom.Point{X: cols - 1 - p.X, Y: rows - 1 - p.Y})
		}
	}
	return nets
}

// TestRunShardedSingleTileMatchesRun pins the degenerate-case contract:
// when every net's bounding-box centre lies in one tile, that tile holds
// every net in one group with one heap, which must reproduce the
// sequential router byte for byte. Capacity is ample, so no
// reconciliation runs (Run has none).
func TestRunShardedSingleTileMatchesRun(t *testing.T) {
	g, err := grid.New(12, 12, 100, 100, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	nets := centredNets(3, 40, 12, 12)
	for _, aware := range []bool{false, true} {
		seqR, err := NewRouter(g, Config{ShieldAware: aware}, nets)
		if err != nil {
			t.Fatal(err)
		}
		seq := seqR.Run()
		shR, err := NewRouter(g, Config{ShieldAware: aware}, nets)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := shR.RunSharded(context.Background(), nil, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if sh.Stats.Shards != 1 || sh.Stats.ReconcileRounds != 0 {
			t.Fatalf("centred nets ran as %d shards with %d reconcile rounds, want 1 and 0", sh.Stats.Shards, sh.Stats.ReconcileRounds)
		}
		resultsEqual(t, seq, sh, false)
	}
}

// TestRunShardedWorkerInvariance is Phase I's determinism contract: the
// sharded fixpoint is a pure function of the input, so a nil pool, a
// 1-worker engine, and an 8-worker engine must produce byte-identical
// results. Tight capacities force the reconciliation path to run too.
func TestRunShardedWorkerInvariance(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets := randomNets(7, 120, 16, 16)
	run := func(pool Pool) *Result {
		r, err := NewRouter(g, Config{ShieldAware: true}, nets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSharded(context.Background(), pool, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	if base.Stats.Shards < 2 {
		t.Fatalf("expected a multi-shard decomposition, got %d", base.Stats.Shards)
	}
	for _, workers := range []int{1, 4, 8} {
		got := run(engine.New(engine.Config{Workers: workers}))
		resultsEqual(t, base, got, true)
	}
	for i := range base.Trees {
		if !base.Trees[i].IsTree() || !base.Trees[i].Connected(nets[i].Pins) {
			t.Fatalf("net %d: invalid sharded route", i)
		}
	}
}

// TestRunShardedCrossTileNets covers the awkward partition cases: nets
// whose bounding box spans many tiles (a chip-diagonal net), single-region
// nets sitting exactly on tile boundaries, and nets hugging a boundary
// column. All must route validly.
func TestRunShardedCrossTileNets(t *testing.T) {
	// 8×8 grid with the default 8×8 tiling: every region is its own tile,
	// so every multi-region net is a cross-tile net.
	g, err := grid.New(8, 8, 100, 100, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	nets := []Net{
		{ID: 0, Pins: []geom.Point{{X: 0, Y: 0}, {X: 7, Y: 7}}},          // spans the whole tile grid
		{ID: 1, Pins: []geom.Point{{X: 3, Y: 4}, {X: 3, Y: 4}}, Rate: 1}, // single-region, boundary tile
		{ID: 2, Pins: []geom.Point{{X: 4, Y: 0}, {X: 4, Y: 7}}},          // rides a tile boundary column
		{ID: 3, Pins: []geom.Point{{X: 0, Y: 3}, {X: 7, Y: 3}, {X: 4, Y: 6}}},
	}
	r, err := NewRouter(g, Config{ShieldAware: true}, nets)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSharded(context.Background(), engine.New(engine.Config{Workers: 4}), ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tree := range res.Trees {
		if !tree.IsTree() || !tree.Connected(nets[i].Pins) {
			t.Fatalf("net %d: invalid route", i)
		}
	}
	if n := len(res.Trees[1].Edges); n != 0 {
		t.Errorf("single-region net has %d edges, want 0", n)
	}
}

// TestRunShardedReconciliationBounded checks the reconciliation loop
// terminates at its bound even on a design that genuinely overflows (more
// parallel nets than tracks), and that ripped-up nets stay valid trees.
func TestRunShardedReconciliationBounded(t *testing.T) {
	g, err := grid.New(8, 3, 100, 100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var nets []Net
	for i := 0; i < 6; i++ {
		nets = append(nets, Net{ID: i, Pins: []geom.Point{{X: 0, Y: 1}, {X: 7, Y: 1}}})
	}
	r, err := NewRouter(g, Config{}, nets)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSharded(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReconcileRounds > maxReconcileRounds {
		t.Errorf("reconciliation ran %d rounds, bound %d", res.Stats.ReconcileRounds, maxReconcileRounds)
	}
	for i, tree := range res.Trees {
		if !tree.IsTree() || !tree.Connected(nets[i].Pins) {
			t.Fatalf("net %d: invalid route after reconciliation", i)
		}
	}
}

// TestRunShardedContextCancel verifies a cancelled context aborts the run.
func TestRunShardedContextCancel(t *testing.T) {
	g, err := grid.New(8, 8, 100, 100, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g, Config{}, randomNets(1, 10, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunSharded(ctx, engine.New(engine.Config{Workers: 2}), ShardConfig{}); err == nil {
		t.Error("cancelled context: want error")
	}
}

// poolSpanNames returns the sorted names of the shard-drain and
// reconcile-component task spans in tr.
func poolSpanNames(t *testing.T, tr *obs.Tracer) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct{ Name, Cat, Ph string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && (e.Cat == "shard" || e.Cat == "reconcile") {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return names
}

// TestSerialPoolTraceTaxonomy: a nil pool runs the very task batches the
// engine would, one at a time, so a traced nil-pool RunSharded plus
// RunShardedResume records the engine path's shard and reconcile task
// spans — same names, same count.
func TestSerialPoolTraceTaxonomy(t *testing.T) {
	g, nets := twoClusterOverflow(t)
	edited := append([]Net(nil), nets...)
	edited[0] = Net{ID: 0, Pins: []geom.Point{{X: 0, Y: 1}, {X: 6, Y: 1}}}
	run := func(tr *obs.Tracer, pool Pool) []string {
		scfg := ShardConfig{Trace: tr, Lane: tr.Lane("caller")}
		r, err := NewRouter(g, Config{}, nets)
		if err != nil {
			t.Fatal(err)
		}
		res, ds, err := r.RunShardedState(context.Background(), pool, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Shards < 2 || res.Stats.ReconcileRounds == 0 {
			t.Fatalf("fixture drifted: %+v", res.Stats)
		}
		res, _, _, err = RunShardedResume(context.Background(), g, Config{}, edited, pool, scfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReconcileRounds == 0 {
			t.Fatalf("resume fixture drifted: %+v", res.Stats)
		}
		return poolSpanNames(t, tr)
	}
	serial := run(obs.New(), nil)
	tr := obs.New()
	pooled := run(tr, engine.New(engine.Config{Workers: 2, Trace: tr}))
	if !reflect.DeepEqual(serial, pooled) {
		t.Errorf("nil-pool task spans %q, engine %q", serial, pooled)
	}
	for _, want := range []string{"shard 0 ", "eco shard ", "reconcile 0 comp 0 "} {
		found := false
		for _, name := range serial {
			found = found || strings.HasPrefix(name, want)
		}
		if !found {
			t.Errorf("no nil-pool task span starting %q in %q", want, serial)
		}
	}
}
