package route

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
)

// cancelPool wraps a Pool and cancels the run's context immediately before
// delegating task batch number `at`. Every router fan-out (seeding chunks,
// shard drains, reconciliation drains) reaches it through the one RunTasks
// door, so the batch count is predictable.
type cancelPool struct {
	inner  Pool
	cancel context.CancelFunc
	at     int
	calls  int
}

func (p *cancelPool) RunTasks(ctx context.Context, cat string, labels []string, tasks []func() error) error {
	if p.calls == p.at {
		p.cancel()
	}
	p.calls++
	return p.inner.RunTasks(ctx, cat, labels, tasks)
}

// TestNewRouterOnCancelMidSeeding: cancelling while the chunked per-net
// construction is in flight must surface context.Canceled and return no
// router — a half-seeded router must never escape.
func TestNewRouterOnCancelMidSeeding(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets := randomNets(7, 600, 16, 16) // 600 nets -> multiple seed chunks

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := &cancelPool{inner: engine.New(engine.Config{Workers: 2}), cancel: cancel}
	r, err := NewRouterOn(ctx, g, Config{ShieldAware: true}, nets, pool)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r != nil {
		t.Fatal("cancelled construction returned a router")
	}
	if pool.calls == 0 {
		t.Fatal("seeding never reached the pool; fixture drifted")
	}
}

// TestNewRouterOnCancelSerial: the nil-pool serial seeding path honors
// cancellation between chunks too.
func TestNewRouterOnCancelSerial(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := NewRouterOn(ctx, g, Config{}, randomNets(7, 40, 16, 16), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r != nil {
		t.Fatal("cancelled construction returned a router")
	}
}

// twoClusterOverflow builds a design with two bbox-disjoint groups of
// parallel nets, each overflowing its row capacity, so reconciliation rips
// up both groups in one round.
func twoClusterOverflow(t *testing.T) (*grid.Grid, []Net) {
	t.Helper()
	g, err := grid.New(8, 7, 100, 100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var nets []Net
	for i := 0; i < 6; i++ {
		nets = append(nets, Net{ID: len(nets), Pins: []geom.Point{{X: 0, Y: 1}, {X: 7, Y: 1}}})
	}
	for i := 0; i < 6; i++ {
		nets = append(nets, Net{ID: len(nets), Pins: []geom.Point{{X: 0, Y: 5}, {X: 7, Y: 5}}})
	}
	return g, nets
}

// TestRunShardedCancelMidReconcile: cancellation during the concurrent
// component drain of a reconciliation round must abort the run with
// context.Canceled and return no result.
func TestRunShardedCancelMidReconcile(t *testing.T) {
	g, nets := twoClusterOverflow(t)
	r, err := NewRouter(g, Config{}, nets)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Batch 0 is the shard drain; batch 1 is reconcile round 0's component
	// drain — cancel there.
	pool := &cancelPool{inner: engine.New(engine.Config{Workers: 2}), cancel: cancel, at: 1}
	res, err := r.RunSharded(ctx, pool, ShardConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if pool.calls < 2 {
		t.Fatalf("run issued %d pool batches; never reached reconciliation", pool.calls)
	}
}

// TestTwoClusterReconcileComponents pins the fixture the cancellation test
// rides on: both net groups reconcile, each round drains once, over all
// 12 nets in the largest, and the rounds finish with valid trees and
// byte-identical results at any worker count.
func TestTwoClusterReconcileComponents(t *testing.T) {
	g, nets := twoClusterOverflow(t)
	run := func(pool Pool) *Result {
		r, err := NewRouter(g, Config{}, nets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSharded(context.Background(), pool, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(nil)
	if ref.Stats.ReconcileRounds == 0 {
		t.Fatal("fixture did not reconcile; it no longer exercises the reconciliation drain")
	}
	if ref.Stats.ReconcileComponents != ref.Stats.ReconcileRounds {
		t.Fatalf("%d reconciliation drains in %d rounds, want one per round", ref.Stats.ReconcileComponents, ref.Stats.ReconcileRounds)
	}
	if ref.Stats.LargestComponent != 12 {
		t.Fatalf("largest round %d nets, want both clusters' 12", ref.Stats.LargestComponent)
	}
	for _, workers := range []int{1, 4} {
		got := run(engine.New(engine.Config{Workers: workers}))
		resultsEqual(t, ref, got, true)
	}
	for i, tree := range ref.Trees {
		if !tree.IsTree() || !tree.Connected(nets[i].Pins) {
			t.Fatalf("net %d: invalid route after reconciliation", i)
		}
	}
}
