package steiner

import (
	"sort"

	"repro/internal/geom"
)

// The two-call estimate the router used before Scratch.Estimate, kept
// verbatim as the oracle estimate_test.go checks it against: Length and
// LengthMicron for the RSMT length, Topology for the spine skeleton, each
// deduplicating and running the heuristic on its own.

// Length returns the estimated RSMT length of pts in grid units.
func Length(pts []geom.Point) int {
	pts = dedup(pts)
	switch {
	case len(pts) <= 1:
		return 0
	case len(pts) <= 3:
		return geom.HPWL(pts)
	case len(pts) <= MaxExactPins:
		return iterated1Steiner(pts)
	default:
		return mstLength(pts)
	}
}

// LengthMicron returns the physical RSMT estimate when horizontal and
// vertical grid edges have different physical lengths: points are in region
// coordinates, cellW/cellH the region dimensions. It runs the grid-unit
// estimator on the point set and scales each direction by the bounding-box
// share of that direction, an adequate approximation for weight
// normalization.
func LengthMicron(pts []geom.Point, cellW, cellH geom.Micron) geom.Micron {
	pts = dedup(pts)
	if len(pts) <= 1 {
		return 0
	}
	bb := geom.RectFromPoints(pts)
	total := Length(pts)
	span := bb.HalfPerimeter()
	if span == 0 {
		return 0
	}
	// Apportion the estimated length between directions in proportion to the
	// bounding box sides, then scale.
	hShare := float64(bb.Width()-1) / float64(span)
	vShare := float64(bb.Height()-1) / float64(span)
	return geom.Micron(float64(total) * (hShare*float64(cellW) + vShare*float64(cellH)))
}

func dedup(pts []geom.Point) []geom.Point {
	if len(pts) < 2 {
		return pts
	}
	seen := make(map[geom.Point]bool, len(pts))
	out := make([]geom.Point, 0, len(pts))
	for _, p := range pts {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Topology returns the estimated RSMT skeleton of pts: the pins plus any
// Steiner points the 1-Steiner heuristic adds, and the MST edges over that
// point set as index pairs. The ID router embeds each edge as an L-path to
// form a spine field — candidate routing edges far from the spine are poor
// tree material and get deleted first.
func Topology(pts []geom.Point) (points []geom.Point, edges [][2]int) {
	points = dedup(pts)
	if len(points) == 0 {
		return nil, nil
	}
	if len(points) > 3 && len(points) <= MaxExactPins {
		current := mstLength(points)
		cands := hananPoints(points)
		for {
			bestGain, bestIdx := 0, -1
			for ci, c := range cands {
				if containsPoint(points, c) {
					continue
				}
				trial := mstLength(append(points, c))
				if gain := current - trial; gain > bestGain {
					bestGain, bestIdx = gain, ci
				}
			}
			if bestIdx < 0 {
				break
			}
			points = append(points, cands[bestIdx])
			current -= bestGain
		}
	}
	return points, mstEdges(points)
}

// mstEdges returns the rectilinear MST of pts as index pairs (Prim).
func mstEdges(pts []geom.Point) [][2]int {
	n := len(pts)
	if n < 2 {
		return nil
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, n)
	parent := make([]int, n)
	inTree := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		parent[i] = -1
	}
	dist[0] = 0
	edges := make([][2]int, 0, n-1)
	for range pts {
		best, bestD := -1, inf
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		if parent[best] >= 0 {
			edges = append(edges, [2]int{parent[best], best})
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
	return edges
}

// mstLength returns the rectilinear MST length via Prim's algorithm (dense
// O(n²), fine for net-sized point sets).
func mstLength(pts []geom.Point) int {
	n := len(pts)
	if n < 2 {
		return 0
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, n)
	inTree := make([]bool, n)
	for i := range dist {
		dist[i] = inf
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
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[best].Manhattan(pts[i]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

// iterated1Steiner repeatedly adds the Hanan-grid point that most reduces
// the MST length, until no candidate helps. Added Steiner points with tree
// degree ≤ 2 are useless and pruned implicitly by the gain test.
func iterated1Steiner(pins []geom.Point) int {
	pts := append([]geom.Point(nil), pins...)
	current := mstLength(pts)
	cands := hananPoints(pins)
	for {
		bestGain, bestIdx := 0, -1
		for ci, c := range cands {
			if containsPoint(pts, c) {
				continue
			}
			trial := mstLength(append(pts, c))
			if gain := current - trial; gain > bestGain {
				bestGain, bestIdx = gain, ci
			}
		}
		if bestIdx < 0 {
			return current
		}
		pts = append(pts, cands[bestIdx])
		current -= bestGain
	}
}

// hananPoints returns the Hanan grid of the pins: all intersections of
// horizontal and vertical lines through pins, excluding the pins themselves.
func hananPoints(pins []geom.Point) []geom.Point {
	xs := make([]int, 0, len(pins))
	ys := make([]int, 0, len(pins))
	for _, p := range pins {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	xs = uniqInts(xs)
	ys = uniqInts(ys)
	var out []geom.Point
	for _, x := range xs {
		for _, y := range ys {
			p := geom.Point{X: x, Y: y}
			if !containsPoint(pins, p) {
				out = append(out, p)
			}
		}
	}
	return out
}

func uniqInts(v []int) []int {
	sort.Ints(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}
