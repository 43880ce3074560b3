package steiner

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// randomPins returns an n-pin net drawn to hit the estimator's edge cases:
// small coordinate ranges (coincident and collinear pins), whole nets on
// one row or column, and pins repeated from earlier in the list.
func randomPins(rng *rand.Rand, n int) []geom.Point {
	span := 1 + rng.Intn(16)
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Point{X: rng.Intn(span), Y: rng.Intn(span)}
		if i > 0 && rng.Intn(5) == 0 {
			pins[i] = pins[rng.Intn(i)]
		}
	}
	switch rng.Intn(6) {
	case 0:
		for i := range pins {
			pins[i].Y = pins[0].Y
		}
	case 1:
		for i := range pins {
			pins[i].X = pins[0].X
		}
	}
	return pins
}

// TestEstimateMatchesTwoCallForm pins Scratch.Estimate to the two calls
// it replaced: LengthMicron's length bit for bit, and Topology's points
// and edges exactly, for 0 to 14 pins (duplicates, collinear and
// coincident pins, nets past MaxExactPins) on one reused Scratch.
func TestEstimateMatchesTwoCallForm(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var s Scratch
	check := func(pins []geom.Point, cellW, cellH geom.Micron) {
		t.Helper()
		in := slices.Clone(pins)
		length, points, edges := s.Estimate(pins, cellW, cellH)
		if !slices.Equal(pins, in) {
			t.Fatalf("Estimate wrote its input: %v, was %v", pins, in)
		}
		wantLen := LengthMicron(pins, cellW, cellH)
		wantPts, wantEdges := Topology(pins)
		if math.Float64bits(float64(length)) != math.Float64bits(float64(wantLen)) {
			t.Fatalf("pins %v (%g x %g): length %v, want %v", pins, cellW, cellH, length, wantLen)
		}
		if !slices.Equal(points, wantPts) || !slices.Equal(edges, wantEdges) {
			t.Fatalf("pins %v: topology %v %v, want %v %v", pins, points, edges, wantPts, wantEdges)
		}
	}
	check(nil, 100, 50)
	check([]geom.Point{{X: 3, Y: 4}}, 100, 50)
	check([]geom.Point{{X: 3, Y: 4}, {X: 3, Y: 4}, {X: 3, Y: 4}}, 100, 50)
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(13)
		cellW := geom.Micron(1 + rng.Intn(400))
		cellH := geom.Micron(1 + rng.Intn(400))
		if rng.Intn(4) == 0 {
			cellW, cellH = geom.Micron(rng.Float64()*300), geom.Micron(rng.Float64()*300)
		}
		check(randomPins(rng, n), cellW, cellH)
	}
}

// TestEstimateWarmAllocatesNothing: once a Scratch has estimated the
// largest net of a set, estimating any net of the set allocates nothing.
func TestEstimateWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nets := make([][]geom.Point, 64)
	for i := range nets {
		nets[i] = randomPins(rng, 2+i%(MaxExactPins+8))
	}
	var s Scratch
	for _, pins := range nets {
		s.Estimate(pins, 100, 80)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, pins := range nets {
			s.Estimate(pins, 100, 80)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm estimates allocated %v times per pass", allocs)
	}
}
