package route

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// Test-only views of a routed result: tree shape checks and the exact
// per-region track usage the trees imply.

// TotalWirelengthUM sums tree wirelengths.
func (r *Result) TotalWirelengthUM(g *grid.Grid) geom.Micron {
	var wl geom.Micron
	for i := range r.Trees {
		wl += r.Trees[i].WirelengthUM(g)
	}
	return wl
}

// TouchesDirection reports per-direction track occupancy of a tree: the
// regions where the net holds a horizontal (resp. vertical) track.
func (t *Tree) TouchesDirection() (h, v map[geom.Point]bool) {
	h = make(map[geom.Point]bool)
	v = make(map[geom.Point]bool)
	for _, e := range t.Edges {
		if e.Horizontal() {
			h[e.From] = true
			h[e.To] = true
		} else {
			v[e.From] = true
			v[e.To] = true
		}
	}
	return h, v
}

// Connected verifies the tree spans all its pin regions.
func (t *Tree) Connected(pins []geom.Point) bool {
	if len(pins) <= 1 {
		return true
	}
	adj := make(map[geom.Point][]geom.Point)
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	visited := map[geom.Point]bool{pins[0]: true}
	queue := []geom.Point{pins[0]}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range adj[p] {
			if !visited[q] {
				visited[q] = true
				queue = append(queue, q)
			}
		}
	}
	for _, p := range pins {
		if !visited[p] {
			return false
		}
	}
	return true
}

// IsTree verifies the edge set is acyclic and connected over its touched
// regions.
func (t *Tree) IsTree() bool {
	if len(t.Edges) == 0 {
		return true
	}
	verts := make(map[geom.Point]bool)
	for _, e := range t.Edges {
		verts[e.From] = true
		verts[e.To] = true
	}
	// A connected graph with V vertices and V-1 edges is a tree.
	if len(t.Edges) != len(verts)-1 {
		return false
	}
	adj := make(map[geom.Point][]geom.Point)
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	var start geom.Point
	for p := range verts { //detcheck:allow maporder picks an arbitrary BFS start vertex; the connectivity verdict is the same from any start
		start = p
		break
	}
	visited := map[geom.Point]bool{start: true}
	queue := []geom.Point{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range adj[p] {
			if !visited[q] {
				visited[q] = true
				queue = append(queue, q)
			}
		}
	}
	return len(visited) == len(verts)
}

// treeUsage recounts a result's exact per-region track demand from its
// trees: one track per net per region per direction the net's edges use.
func treeUsage(g *grid.Grid, res *Result) *grid.Usage {
	u := grid.NewUsage(g)
	for i := range res.Trees {
		h, v := res.Trees[i].TouchesDirection()
		for p := range h {
			u.H[g.Index(p)]++
		}
		for p := range v {
			u.V[g.Index(p)]++
		}
	}
	return u
}
