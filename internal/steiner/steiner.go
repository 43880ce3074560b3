// Package steiner estimates rectilinear Steiner minimum tree (RSMT) lengths
// for nets on the routing grid. The ID router's weight function normalizes
// wire length against "the estimated wire length of the RSMT for the current
// net" (paper Formula 2), so a decent estimator matters for routing quality.
//
// Exactness by pin count:
//   - up to 3 pins: half-perimeter wirelength (HPWL) is the exact RSMT length;
//   - 4 to MaxExactPins: iterated 1-Steiner over the Hanan grid
//     (Kahng–Robins), optimal or near-optimal at these sizes;
//   - larger nets: rectilinear minimum spanning tree, a ≤ 1.5-approximation.
//
// One call, Scratch.Estimate, returns both what the router needs from a
// net: the length that normalizes f(WL) and the tree skeleton its spine is
// drawn from, out of a single run of the heuristic.
package steiner

import (
	"slices"

	"repro/internal/geom"
)

// MaxExactPins bounds the pin count for which the iterated 1-Steiner
// heuristic runs; larger nets fall back to the MST length. The Hanan grid of
// an n-pin net has n² candidate points, so this keeps estimation O(n⁴) only
// for small n.
const MaxExactPins = 10

// Scratch is the working memory of Estimate. The zero value is ready; its
// buffers grow to the largest net estimated and are reused after that, so
// an estimate on a warm Scratch allocates nothing. A Scratch serves one
// goroutine at a time.
type Scratch struct {
	pts    []geom.Point // distinct pins in first-seen order, then Steiner points
	cands  []geom.Point // the Hanan-grid points that are not pins
	xs, ys []int
	dist   []int
	parent []int
	inTree []bool
	edges  [][2]int
}

// Estimate returns the estimated RSMT of pins (region coordinates, repeats
// ignored) on a grid of cellW × cellH regions: its physical length, and its
// skeleton — the distinct pins in first-seen order followed by any Steiner
// points the 1-Steiner heuristic adds, with the rectilinear MST over those
// points as index pairs. The ID router embeds each edge as an L-path to
// form a spine field: candidate routing edges far from the spine are poor
// tree material and get deleted first. The slices are s's own, valid until
// its next Estimate.
//
// The length is the grid-unit estimate scaled per direction by the
// bounding box's share of that direction, an adequate approximation for
// weight normalization. For 4 to MaxExactPins pins the grid-unit estimate
// is the MST length the 1-Steiner loop ends on, which is the MST the
// edges come from; past MaxExactPins one Prim run gives both.
func (s *Scratch) Estimate(pins []geom.Point, cellW, cellH geom.Micron) (length geom.Micron, points []geom.Point, edges [][2]int) {
	s.pts = s.pts[:0]
	for _, p := range pins {
		if !containsPoint(s.pts, p) {
			s.pts = append(s.pts, p)
		}
	}
	n := len(s.pts)
	if n <= 1 {
		s.edges = s.edges[:0]
		return 0, s.pts, s.edges
	}
	bb := geom.RectFromPoints(s.pts)
	var total int
	switch {
	case n <= 3:
		total = geom.HPWL(s.pts)
		s.mst(s.pts, true)
	case n <= MaxExactPins:
		total = s.iterated1Steiner()
		s.mst(s.pts, true)
	default:
		total = s.mst(s.pts, true)
	}
	span := bb.HalfPerimeter()
	// Apportion the estimated length between directions in proportion to the
	// bounding box sides, then scale.
	hShare := float64(bb.Width()-1) / float64(span)
	vShare := float64(bb.Height()-1) / float64(span)
	return geom.Micron(float64(total) * (hShare*float64(cellW) + vShare*float64(cellH))), s.pts, s.edges
}

// iterated1Steiner repeatedly adds to s.pts the Hanan-grid point that most
// reduces the MST length, until no candidate helps, and returns that
// length. Candidates are tried in Hanan order and only a strictly larger
// gain replaces the best. Added Steiner points with tree degree ≤ 2 are
// useless and pruned implicitly by the gain test.
func (s *Scratch) iterated1Steiner() int {
	current := s.mst(s.pts, false)
	s.hanan()
	// Every added point is a distinct candidate and a trial appends one
	// more, so this capacity keeps the appends below in place.
	s.pts = slices.Grow(s.pts, len(s.cands)+1)
	for {
		bestGain, bestIdx := 0, -1
		for ci, c := range s.cands {
			if containsPoint(s.pts, c) {
				continue
			}
			trial := s.mst(append(s.pts, c), false)
			if gain := current - trial; gain > bestGain {
				bestGain, bestIdx = gain, ci
			}
		}
		if bestIdx < 0 {
			return current
		}
		s.pts = append(s.pts, s.cands[bestIdx])
		current -= bestGain
	}
}

// mst returns the rectilinear MST length of pts via Prim's algorithm (dense
// O(n²), fine for net-sized point sets); withEdges also leaves the tree in
// s.edges as index pairs, in the order vertices join it.
func (s *Scratch) mst(pts []geom.Point, withEdges bool) int {
	s.edges = s.edges[:0]
	n := len(pts)
	if n < 2 {
		return 0
	}
	const inf = int(^uint(0) >> 1)
	dist, parent, inTree := grow(&s.dist, n), grow(&s.parent, n), grow(&s.inTree, n)
	for i := range dist {
		dist[i] = inf
		parent[i] = -1
		inTree[i] = false
	}
	dist[0] = 0
	total := 0
	for range pts {
		best, bestD := -1, inf
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		total += bestD
		if withEdges && parent[best] >= 0 {
			s.edges = append(s.edges, [2]int{parent[best], best})
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[best].Manhattan(pts[i]); d < dist[i] {
					dist[i] = d
					parent[i] = best
				}
			}
		}
	}
	return total
}

// grow returns *buf resliced to n elements, reallocating only when its
// capacity is short. The contents are not cleared.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func containsPoint(pts []geom.Point, q geom.Point) bool {
	for _, p := range pts {
		if p == q {
			return true
		}
	}
	return false
}

// hanan sets s.cands to the Hanan grid of the pins in s.pts: all
// intersections of horizontal and vertical lines through pins, excluding
// the pins themselves, x-major in ascending coordinates.
func (s *Scratch) hanan() {
	s.xs, s.ys = s.xs[:0], s.ys[:0]
	for _, p := range s.pts {
		s.xs = append(s.xs, p.X)
		s.ys = append(s.ys, p.Y)
	}
	slices.Sort(s.xs)
	slices.Sort(s.ys)
	s.xs, s.ys = slices.Compact(s.xs), slices.Compact(s.ys)
	s.cands = s.cands[:0]
	for _, x := range s.xs {
		for _, y := range s.ys {
			if p := (geom.Point{X: x, Y: y}); !containsPoint(s.pts, p) {
				s.cands = append(s.cands, p)
			}
		}
	}
}
