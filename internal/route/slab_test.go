package route

import (
	"context"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/grid"
)

// TestNewRouterAllocsFlat: seeding allocates as often for 250 nets as for
// 50, at one seed chunk. The records, pins and slabs are a fixed number
// of arrays, and the chunk's scratch grows to the largest net it sees;
// the large fixture is five copies of the small one, so it sees the same.
// The collector stays off while they are counted, since a cycle can add a
// runtime allocation of its own. Not parallel: the setting is process-wide.
func TestNewRouterAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, err := grid.New(16, 16, 100, 80, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	small := randomNets(9, 50, 16, 16)
	var large []Net
	for range 5 {
		for _, n := range small {
			n.ID = len(large)
			large = append(large, n)
		}
	}
	if len(large) > seedChunk {
		t.Fatalf("%d nets take more than one seed chunk", len(large))
	}
	seed := func(nets []Net) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NewRouter(g, Config{ShieldAware: true}, nets); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := seed(small), seed(large); a != b {
		t.Fatalf("NewRouter allocated %v times on %d nets and %v on %d", a, len(small), b, len(large))
	}
}

// captured keeps the states TestCaptureAllocsFlat captures on the heap.
var captured *DrainState

// TestCaptureAllocsFlat: a drain-state capture allocates the state and its
// clone of the flags slab, on 100 nets as on 1,600.
func TestCaptureAllocsFlat(t *testing.T) {
	for _, n := range []int{100, 1600} {
		r, tiles := drainedRouter(t, 3, 16, 16, 2, 2, n)
		if a := testing.AllocsPerRun(10, func() { captured = r.drainState(tiles) }); a != 2 {
			t.Fatalf("capturing %d nets allocated %v times, want 2", n, a)
		}
	}
}

// TestCaptureIsASnapshot: the state RunShardedState returns holds the
// flags the merge left, not the ones reconciliation went on to write.
// They equal a twin router's after its tile drains and merge, and some
// net round 0 ripped up ends with other flags in the router than in the
// state. The state shares the router's records and immutable slabs and
// owns its flags.
func TestCaptureIsASnapshot(t *testing.T) {
	const seed, dim, capacity, nNets = 3, 16, 2, 600
	twin, _ := drainedRouter(t, seed, dim, dim, capacity, capacity, nNets)
	g, err := grid.New(dim, dim, 100, 80, capacity, capacity)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g, Config{ShieldAware: seed%2 == 0}, randomNets(seed, nNets, dim, dim))
	if err != nil {
		t.Fatal(err)
	}
	res, ds, err := r.RunShardedState(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ripped := twin.overflowNets()
	if res.Stats.Reconciled == 0 || len(ripped) == 0 {
		t.Fatal("nothing was reconciled; the fixture drifted")
	}
	if !slices.Equal(ds.flags, twin.flags) {
		t.Fatal("the captured flags are not the post-merge flags")
	}
	if &ds.flags[0] == &r.flags[0] {
		t.Fatal("the state aliases the router's flags")
	}
	if &ds.nets[0] != &r.nets[0] || &ds.spine[0] != &r.spine[0] || &ds.pinMask[0] != &r.pinMask[0] {
		t.Fatal("the state copied what it could share")
	}
	differ := 0
	for _, ni := range ripped {
		lo, hi := r.nets[ni].edgeH, r.nets[ni].edgeH+r.nets[ni].numEdges()
		if !slices.Equal(ds.flags[lo:hi], r.flags[lo:hi]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatalf("none of the %d ripped nets' flags changed after the capture", len(ripped))
	}
}
