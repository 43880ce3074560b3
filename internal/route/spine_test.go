package route

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

func TestSpineFieldZeroOnTopology(t *testing.T) {
	g := testGrid(t, 10, 10, 10, 10)
	pins := []geom.Point{{X: 1, Y: 1}, {X: 8, Y: 1}, {X: 4, Y: 8}}
	r, err := NewRouter(g, Config{}, []Net{{ID: 0, Pins: pins}})
	if err != nil {
		t.Fatal(err)
	}
	ns := &r.nets[0]
	for _, p := range pins {
		if d := ns.spineDist[ns.vertex(p.X, p.Y)]; d != 0 {
			t.Errorf("pin %v has spine distance %d, want 0", p, d)
		}
	}
	// Every bbox vertex must have a finite distance.
	for v, d := range ns.spineDist {
		if d < 0 {
			t.Fatalf("vertex %d unreachable from spine", v)
		}
	}
	// The factor grows monotonically with distance and is 1 on the spine.
	if f := ns.spineFactor(ns.vertex(1, 1), ns.vertex(2, 1)); f != 1 {
		t.Errorf("on-spine factor = %g, want 1", f)
	}
	far := ns.spineFactor(ns.vertex(8, 8), ns.vertex(8, 7))
	near := ns.spineFactor(ns.vertex(4, 2), ns.vertex(4, 3))
	if far <= near {
		t.Errorf("far factor %g not above near factor %g", far, near)
	}
}

func TestStraightNetRoutesStraightUnderLightLoad(t *testing.T) {
	// Several parallel straight nets with capacity to spare must all route
	// at exactly their Manhattan length.
	g := testGrid(t, 12, 6, 8, 8)
	var nets []Net
	for y := 0; y < 6; y++ {
		nets = append(nets, Net{ID: y, Pins: []geom.Point{{X: 0, Y: y}, {X: 11, Y: y}}})
	}
	res := routeNets(t, g, Config{}, nets)
	for i := range res.Trees {
		if got := len(res.Trees[i].Edges); got != 11 {
			t.Errorf("net %d used %d edges, want 11", i, got)
		}
	}
}

func TestWeightsMonotoneUnderDeletion(t *testing.T) {
	// The lazy heap relies on edge weights never increasing as deletion
	// progresses. Run a routing problem and spot-check that a surviving
	// edge's recomputed weight never exceeds its initial weight.
	g := testGrid(t, 6, 6, 6, 6)
	var nets []Net
	for i := 0; i < 12; i++ {
		nets = append(nets, Net{ID: i, Rate: 0.5, Pins: []geom.Point{
			{X: i % 3, Y: i % 6}, {X: 5 - i%2, Y: (i * 2) % 6},
		}})
	}
	r, err := NewRouter(g, Config{ShieldAware: true}, nets)
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		net, x, y int
		horz      bool
		initial   float64
	}
	var probes []probe
	for ni := range r.nets {
		ns := &r.nets[ni]
		for e, alive := range ns.aliveH {
			if alive {
				x, y := r.edgeOrigin(ns, e, true)
				probes = append(probes, probe{ni, x, y, true, r.edgeWeight(ni, x, y, true, nil)})
			}
		}
	}
	res := r.Run()
	for _, p := range probes {
		ns := &r.nets[p.net]
		// Only check surviving edges (deleted ones have no defined weight).
		if !ns.aliveH[ns.hEdge(p.x, p.y)] {
			continue
		}
		if w := r.edgeWeight(p.net, p.x, p.y, p.horz, nil); w > p.initial+1e-9 {
			t.Fatalf("edge weight rose from %g to %g", p.initial, w)
		}
	}
	_ = res
}

func TestRouterHandlesDuplicatePinRegions(t *testing.T) {
	g := testGrid(t, 5, 5, 10, 10)
	res := routeNets(t, g, Config{}, []Net{
		{ID: 0, Pins: []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 3, Y: 3}, {X: 3, Y: 3}}},
	})
	tree := res.Trees[0]
	if !tree.Connected([]geom.Point{{X: 1, Y: 1}, {X: 3, Y: 3}}) {
		t.Fatal("duplicated pins broke connectivity")
	}
	if len(tree.Edges) != 4 {
		t.Errorf("routed %d edges, want 4", len(tree.Edges))
	}
}

func TestGridUsageWithinTreeBounds(t *testing.T) {
	// Usage per region never exceeds the number of nets touching it.
	g, err := grid.New(6, 6, 100, 100, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	nets := []Net{
		{ID: 0, Pins: []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 5}}},
		{ID: 1, Pins: []geom.Point{{X: 5, Y: 0}, {X: 0, Y: 5}}},
	}
	r, err := NewRouter(g, Config{}, nets)
	if err != nil {
		t.Fatal(err)
	}
	u := treeUsage(g, r.Run())
	for i := range u.H {
		if u.H[i] > 2 || u.V[i] > 2 {
			t.Fatalf("region %d usage (%g,%g) exceeds net count", i, u.H[i], u.V[i])
		}
	}
}
