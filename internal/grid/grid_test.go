package grid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func mustGrid(t *testing.T, cols, rows int, w, h geom.Micron, hc, vc int) *Grid {
	t.Helper()
	g, err := New(cols, rows, w, h, hc, vc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		cols, rows int
		w, h       geom.Micron
		hc, vc     int
	}{
		{0, 5, 100, 100, 10, 10},
		{5, -1, 100, 100, 10, 10},
		{5, 5, 0, 100, 10, 10},
		{5, 5, 100, -3, 10, 10},
		{5, 5, 100, 100, 0, 10},
		{5, 5, 100, 100, 10, 0},
	}
	for i, c := range cases {
		if _, err := New(c.cols, c.rows, c.w, c.h, c.hc, c.vc); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	// Index is a bijection from the grid's regions onto [0, NumRegions).
	g := mustGrid(t, 7, 5, 100, 120, 8, 9)
	seen := make([]bool, g.NumRegions())
	for y := 0; y < g.Rows; y++ {
		for x := 0; x < g.Cols; x++ {
			i := g.Index(geom.Point{X: x, Y: y})
			if i < 0 || i >= len(seen) || seen[i] {
				t.Fatalf("Index(%d,%d) = %d: out of range or repeated", x, y, i)
			}
			seen[i] = true
		}
	}
}

func TestRegionOfClamps(t *testing.T) {
	g := mustGrid(t, 4, 4, 100, 100, 5, 5)
	cases := []struct {
		loc  geom.MicronPoint
		want geom.Point
	}{
		{geom.MicronPoint{X: 50, Y: 50}, geom.Point{X: 0, Y: 0}},
		{geom.MicronPoint{X: 399, Y: 399}, geom.Point{X: 3, Y: 3}},
		{geom.MicronPoint{X: 400, Y: 0}, geom.Point{X: 3, Y: 0}},    // boundary clamps
		{geom.MicronPoint{X: -10, Y: 1000}, geom.Point{X: 0, Y: 3}}, // outside clamps
		{geom.MicronPoint{X: 250, Y: 150}, geom.Point{X: 2, Y: 1}},
	}
	for _, c := range cases {
		if got := g.RegionOf(c.loc); got != c.want {
			t.Errorf("RegionOf(%v) = %v, want %v", c.loc, got, c.want)
		}
	}
}

func TestDensityAndOverflow(t *testing.T) {
	g := mustGrid(t, 2, 2, 100, 100, 10, 20)
	u := NewUsage(g)
	u.H[0] = 5
	u.H[1] = 15
	u.V[2] = 30
	if d := g.HDensity(u, 0); d != 0.5 {
		t.Errorf("HDensity = %g", d)
	}
	if d := g.HDensity(u, 1); d != 1.5 {
		t.Errorf("overflowed HDensity = %g, want 1.5", d)
	}
	if d := g.VDensity(u, 2); d != 1.5 {
		t.Errorf("overflowed VDensity = %g, want 1.5", d)
	}
	if d := g.VDensity(u, 0); d != 0 {
		t.Errorf("empty VDensity = %g, want 0", d)
	}
}

func TestRoutingAreaNoOverflow(t *testing.T) {
	g := mustGrid(t, 3, 2, 100, 50, 10, 10)
	u := NewUsage(g)
	for i := range u.H {
		u.H[i] = 9
		u.V[i] = 9
	}
	a := g.RoutingArea(u)
	if a.W != 300 || a.H != 100 {
		t.Errorf("area = %v, want 300 x 100", a)
	}
}

func TestRoutingAreaRowExpansion(t *testing.T) {
	// One region in row 0 at double horizontal demand: that row's height
	// doubles; the other row stays.
	g := mustGrid(t, 2, 2, 100, 50, 10, 10)
	u := NewUsage(g)
	u.H[g.Index(geom.Point{X: 1, Y: 0})] = 20
	a := g.RoutingArea(u)
	if a.H != 150 {
		t.Errorf("height = %v, want 150 (one doubled row)", a.H)
	}
	if a.W != 200 {
		t.Errorf("width = %v, want 200 (no vertical overflow)", a.W)
	}
}

func TestRoutingAreaColumnExpansion(t *testing.T) {
	g := mustGrid(t, 2, 2, 100, 50, 10, 10)
	u := NewUsage(g)
	u.V[g.Index(geom.Point{X: 0, Y: 1})] = 15
	a := g.RoutingArea(u)
	if a.W != 250 {
		t.Errorf("width = %v, want 250 (one 1.5x column)", a.W)
	}
}

func TestRoutingAreaMonotoneProperty(t *testing.T) {
	// Adding usage anywhere never shrinks the routing area.
	g := mustGrid(t, 4, 4, 100, 100, 10, 10)
	f := func(cells []uint8) bool {
		u := NewUsage(g)
		for i, c := range cells {
			u.H[i%16] += float64(c % 30)
		}
		before := g.RoutingArea(u)
		u.H[3] += 7
		after := g.RoutingArea(u)
		return after.Product() >= before.Product()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	g := mustGrid(t, 2, 1, 100, 100, 10, 10)
	u := NewUsage(g)
	u.H[0], u.H[1] = 5, 12
	u.V[0], u.V[1] = 0, 8
	s := g.Stats(u)
	if s.OverflowedH != 1 || s.OverflowedV != 0 {
		t.Errorf("overflow counts = %d/%d", s.OverflowedH, s.OverflowedV)
	}
	if s.MaxH != 1.2 || s.MaxV != 0.8 {
		t.Errorf("max densities = %g/%g", s.MaxH, s.MaxV)
	}
	if math.Abs(s.AvgHDensity-0.85) > 1e-12 {
		t.Errorf("avg H density = %g, want 0.85", s.AvgHDensity)
	}
}

func TestAreaString(t *testing.T) {
	a := Area{W: 1533.4, H: 1824.2}
	if a.String() != "1533 x 1824" {
		t.Errorf("String = %q", a.String())
	}
	if math.Abs(a.Product()-1533.4*1824.2) > 1e-6 {
		t.Errorf("Product = %g", a.Product())
	}
}

func TestPanicsOnBadIndex(t *testing.T) {
	g := mustGrid(t, 2, 2, 100, 100, 5, 5)
	for _, f := range []func(){
		func() { g.Index(geom.Point{X: 5, Y: 0}) },
		func() { g.Index(geom.Point{X: 0, Y: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}
