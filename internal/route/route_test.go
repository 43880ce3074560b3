package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/grid"
)

func testGrid(t *testing.T, cols, rows, hc, vc int) *grid.Grid {
	t.Helper()
	g, err := grid.New(cols, rows, 100, 100, hc, vc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func routeNets(t *testing.T, g *grid.Grid, cfg Config, nets []Net) *Result {
	t.Helper()
	r, err := NewRouter(g, cfg, nets)
	if err != nil {
		t.Fatal(err)
	}
	return r.Run()
}

func TestTwoPinStraightLine(t *testing.T) {
	g := testGrid(t, 8, 8, 10, 10)
	res := routeNets(t, g, Config{}, []Net{
		{ID: 0, Pins: []geom.Point{{X: 1, Y: 3}, {X: 6, Y: 3}}},
	})
	tree := res.Trees[0]
	if !tree.IsTree() {
		t.Fatal("result is not a tree")
	}
	if !tree.Connected([]geom.Point{{X: 1, Y: 3}, {X: 6, Y: 3}}) {
		t.Fatal("pins not connected")
	}
	// A straight 2-pin net in an empty grid routes at RSMT length: 5 edges.
	if len(tree.Edges) != 5 {
		t.Errorf("straight net used %d edges, want 5", len(tree.Edges))
	}
}

func TestTwoPinLShape(t *testing.T) {
	g := testGrid(t, 8, 8, 10, 10)
	res := routeNets(t, g, Config{}, []Net{
		{ID: 0, Pins: []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 3}}},
	})
	tree := res.Trees[0]
	if !tree.IsTree() || !tree.Connected([]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 3}}) {
		t.Fatal("invalid route")
	}
	// Manhattan distance is 7; the tree must match it (no detour possible
	// pressure in an empty grid).
	if len(tree.Edges) != 7 {
		t.Errorf("L-shaped net used %d edges, want 7", len(tree.Edges))
	}
}

func TestMultiPinSteiner(t *testing.T) {
	g := testGrid(t, 10, 10, 10, 10)
	pins := []geom.Point{{X: 1, Y: 1}, {X: 8, Y: 1}, {X: 4, Y: 8}}
	res := routeNets(t, g, Config{}, []Net{{ID: 0, Pins: pins}})
	tree := res.Trees[0]
	if !tree.IsTree() || !tree.Connected(pins) {
		t.Fatal("invalid route")
	}
	// The RSMT for these pins needs 14 edges (7 horizontal + 7 vertical via
	// a Steiner point); allow mild slack for the deletion heuristic.
	if len(tree.Edges) > 17 {
		t.Errorf("3-pin net used %d edges, want near RSMT 14", len(tree.Edges))
	}
}

func TestSingleRegionNet(t *testing.T) {
	g := testGrid(t, 4, 4, 10, 10)
	res := routeNets(t, g, Config{}, []Net{
		{ID: 0, Pins: []geom.Point{{X: 2, Y: 2}, {X: 2, Y: 2}}},
	})
	tree := res.Trees[0]
	if len(tree.Edges) != 0 {
		t.Errorf("intra-region net has %d edges, want 0", len(tree.Edges))
	}
}

func TestCongestionAvoidance(t *testing.T) {
	// Fill a horizontal corridor with straight nets, then route one more
	// net whose bounding box allows a detour. With tiny capacity, the extra
	// net must avoid the crowded row.
	g := testGrid(t, 6, 3, 2, 2)
	nets := []Net{
		{ID: 0, Pins: []geom.Point{{X: 0, Y: 1}, {X: 5, Y: 1}}},
		{ID: 1, Pins: []geom.Point{{X: 0, Y: 1}, {X: 5, Y: 1}}},
		{ID: 2, Pins: []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 2}}},
	}
	res := routeNets(t, g, Config{}, nets)
	for i, tree := range res.Trees {
		if !tree.IsTree() || !tree.Connected(nets[i].Pins) {
			t.Fatalf("net %d: invalid route", i)
		}
	}
	stats := g.Stats(treeUsage(g, res))
	if stats.OverflowedH > 0 || stats.OverflowedV > 0 {
		t.Errorf("overflow not avoided: %+v", stats)
	}
}

func TestAllTreesValidProperty(t *testing.T) {
	f := func(seed int64, nNetsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := grid.New(10, 10, 100, 100, 8, 8)
		if err != nil {
			return false
		}
		nNets := 1 + int(nNetsRaw%30)
		nets := make([]Net, nNets)
		for i := range nets {
			np := 2 + rng.Intn(4)
			pins := make([]geom.Point, np)
			for j := range pins {
				pins[j] = geom.Point{X: rng.Intn(10), Y: rng.Intn(10)}
			}
			nets[i] = Net{ID: i, Pins: pins, Rate: 0.3}
		}
		r, err := NewRouter(g, Config{ShieldAware: seed%2 == 0}, nets)
		if err != nil {
			return false
		}
		res := r.Run()
		for i := range res.Trees {
			if !res.Trees[i].IsTree() || !res.Trees[i].Connected(nets[i].Pins) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestShieldAwareSpreadsSensitiveNets(t *testing.T) {
	// Many mutually sensitive nets with identical bounding boxes: the
	// shield-aware router should spread them across more rows than the
	// oblivious router, because shield demand grows superlinearly with
	// per-region sensitive population.
	g := testGrid(t, 12, 6, 6, 6)
	var nets []Net
	for i := 0; i < 12; i++ {
		nets = append(nets, Net{ID: i, Rate: 0.9,
			Pins: []geom.Point{{X: 0, Y: 2}, {X: 11, Y: 3}}})
	}
	rowsUsed := func(res *Result) map[int]bool {
		rows := make(map[int]bool)
		for i := range res.Trees {
			for _, e := range res.Trees[i].Edges {
				if e.Horizontal() {
					rows[e.From.Y] = true
				}
			}
		}
		return rows
	}
	aware := routeNets(t, g, Config{ShieldAware: true}, nets)
	oblivious := routeNets(t, g, Config{ShieldAware: false}, nets)
	if len(rowsUsed(aware)) < len(rowsUsed(oblivious)) {
		t.Errorf("shield-aware router used %d rows, oblivious %d; want >=",
			len(rowsUsed(aware)), len(rowsUsed(oblivious)))
	}
}

func TestRouterInputValidation(t *testing.T) {
	g := testGrid(t, 4, 4, 4, 4)
	cases := []struct {
		name string
		nets []Net
	}{
		{"no pins", []Net{{ID: 0}}},
		{"pin outside", []Net{{ID: 0, Pins: []geom.Point{{X: 9, Y: 0}}}}},
		{"bad rate", []Net{{ID: 0, Pins: []geom.Point{{X: 0, Y: 0}}, Rate: 1.5}}},
		{"NaN rate", []Net{{ID: 0, Pins: []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 1}}, Rate: math.NaN()}}},
	}
	for _, c := range cases {
		if _, err := NewRouter(g, Config{}, c.nets); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if _, err := NewRouter(nil, Config{}, nil); err == nil {
		t.Error("nil grid: want error")
	}
}

func TestWirelengthAccounting(t *testing.T) {
	g, err := grid.New(6, 6, 50, 80, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g, Config{}, []Net{
		{ID: 0, Pins: []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}}}, // 3 horizontal edges
		{ID: 1, Pins: []geom.Point{{X: 5, Y: 1}, {X: 5, Y: 4}}}, // 3 vertical edges
	})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if wl := res.Trees[0].WirelengthUM(g); wl != 150 {
		t.Errorf("horizontal net wirelength = %g, want 150", float64(wl))
	}
	if wl := res.Trees[1].WirelengthUM(g); wl != 240 {
		t.Errorf("vertical net wirelength = %g, want 240", float64(wl))
	}
	if total := res.TotalWirelengthUM(g); total != 390 {
		t.Errorf("total wirelength = %g, want 390", float64(total))
	}
}
