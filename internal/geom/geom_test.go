package geom

import (
	"testing"
	"testing/quick"
)

func TestManhattan(t *testing.T) {
	cases := []struct {
		p, q Point
		want int
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{1, 2}, Point{4, 6}, 7},
		{Point{4, 6}, Point{1, 2}, 7},
		{Point{-3, -1}, Point{2, 1}, 7},
	}
	for _, c := range cases {
		if got := c.p.Manhattan(c.q); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

func TestManhattanProperties(t *testing.T) {
	symmetric := func(a, b int8, c, d int8) bool {
		p, q := Point{int(a), int(b)}, Point{int(c), int(d)}
		return p.Manhattan(q) == q.Manhattan(p) && p.Manhattan(q) >= 0
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	triangle := func(a, b, c, d, e, f int8) bool {
		p, q, r := Point{int(a), int(b)}, Point{int(c), int(d)}, Point{int(e), int(f)}
		return p.Manhattan(r) <= p.Manhattan(q)+q.Manhattan(r)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
}

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints([]Point{{3, 1}, {0, 5}, {2, 2}})
	want := Rect{MinX: 0, MinY: 1, MaxX: 3, MaxY: 5}
	if r != want {
		t.Errorf("RectFromPoints = %v, want %v", r, want)
	}
	if r.Width() != 4 || r.Height() != 5 || r.Cells() != 20 {
		t.Errorf("dims = %dx%d (%d cells)", r.Width(), r.Height(), r.Cells())
	}
	if r.HalfPerimeter() != 7 {
		t.Errorf("HalfPerimeter = %d, want 7", r.HalfPerimeter())
	}
	defer func() {
		if recover() == nil {
			t.Error("RectFromPoints(nil): want panic")
		}
	}()
	RectFromPoints(nil)
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 3, 3}
	for _, p := range []Point{{0, 0}, {3, 3}, {1, 2}} {
		if !r.Contains(p) {
			t.Errorf("%v should contain %v", r, p)
		}
	}
	for _, p := range []Point{{-1, 0}, {4, 0}, {0, 4}} {
		if r.Contains(p) {
			t.Errorf("%v should not contain %v", r, p)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	if !a.Intersects(Rect{2, 2, 4, 4}) {
		t.Error("touching rects should intersect (inclusive)")
	}
	if a.Intersects(Rect{3, 0, 4, 2}) {
		t.Error("disjoint rects should not intersect")
	}
}

func TestHPWL(t *testing.T) {
	if got := HPWL(nil); got != 0 {
		t.Errorf("HPWL(nil) = %d", got)
	}
	if got := HPWL([]Point{{5, 5}}); got != 0 {
		t.Errorf("HPWL(single) = %d", got)
	}
	if got := HPWL([]Point{{0, 0}, {3, 4}}); got != 7 {
		t.Errorf("HPWL = %d, want 7", got)
	}
}

func TestMicronPoint(t *testing.T) {
	p := MicronPoint{X: 1.5, Y: 2}
	q := MicronPoint{X: 4, Y: 0.5}
	if d := p.Manhattan(q); d != 4 {
		t.Errorf("Manhattan = %v, want 4", d)
	}
	if d := q.Manhattan(p); d != 4 {
		t.Errorf("Manhattan not symmetric: %v", d)
	}
}

func TestPointHelpers(t *testing.T) {
	p := Point{1, 2}
	if p.String() != "(1,2)" {
		t.Errorf("String = %q", p.String())
	}
	r := Rect{0, 1, 2, 3}
	if r.String() != "[0,1..2,3]" {
		t.Errorf("Rect.String = %q", r.String())
	}
}
