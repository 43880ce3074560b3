package route

import (
	"cmp"
	"container/heap"
	"context"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/orderutil"
)

// weightSlack is the tolerance for treating a recomputed edge weight as
// current; weights only decrease (see package comment), so a pop whose
// recomputed weight sits within the slack of its key is the true maximum.
const weightSlack = 1e-6

// view is one deletion context's window onto the utilization state: the
// router's frozen base arrays plus a private set of delta arrays covering
// the window rectangle, and the heap of edges it is responsible for.
//
// Sequential Run uses a single view spanning the whole grid. RunSharded
// gives every tile group its own view, so concurrent drains never write
// shared memory: a group reads the base (immutable while drains run) plus
// only its own deltas, which is exactly the frozen-foreign-state semantics
// the determinism argument in shard.go builds on.
type view struct {
	r     *Router
	win   geom.Rect
	wcols int

	dNnsH, dSumSH, dSumS2H []float64
	dNnsV, dSumSV, dSumS2V []float64

	pq edgeHeap
}

func newView(r *Router, win geom.Rect) *view {
	n := win.Cells()
	return &view{
		r: r, win: win, wcols: win.Width(),
		dNnsH: make([]float64, n), dSumSH: make([]float64, n), dSumS2H: make([]float64, n),
		dNnsV: make([]float64, n), dSumSV: make([]float64, n), dSumS2V: make([]float64, n),
	}
}

// widx maps a global region coordinate into the view's window arrays.
func (v *view) widx(x, y int) int { return (y-v.win.MinY)*v.wcols + (x - v.win.MinX) }

// bumpH adjusts the view's private horizontal utilization deltas.
func (v *view) bumpH(x, y int, rate, delta float64) {
	w := v.widx(x, y)
	v.dNnsH[w] += delta
	v.dSumSH[w] += delta * rate
	v.dSumS2H[w] += delta * rate * rate
}

func (v *view) bumpV(x, y int, rate, delta float64) {
	w := v.widx(x, y)
	v.dNnsV[w] += delta
	v.dSumSV[w] += delta * rate
	v.dSumS2V[w] += delta * rate * rate
}

// merge folds the view's deltas into the router's base arrays. Sequential
// only: callers serialize merges in a fixed order so the float additions
// are reproducible.
func (v *view) merge() {
	r := v.r
	for y := v.win.MinY; y <= v.win.MaxY; y++ {
		for x := v.win.MinX; x <= v.win.MaxX; x++ {
			i, w := y*r.g.Cols+x, v.widx(x, y)
			r.nnsH[i] += v.dNnsH[w]
			r.sumSH[i] += v.dSumSH[w]
			r.sumS2H[i] += v.dSumS2H[w]
			r.nnsV[i] += v.dNnsV[w]
			r.sumSV[i] += v.dSumSV[w]
			r.sumS2V[i] += v.dSumS2V[w]
		}
	}
}

// Run executes the iterative deletion to the fixpoint and extracts each
// net's Steiner tree. It is the sequential reference algorithm: one heap,
// one view spanning the grid. A Router is single-use — call exactly one of
// Run or RunSharded, once.
func (r *Router) Run() *Result {
	v := newView(r, r.g.Bounds())
	v.pq = r.pq
	r.pq = nil
	v.drain()
	v.merge()
	res := r.extract()
	res.Stats = RunStats{Shards: 1, LargestShard: len(r.nets), SeedChunks: r.seedChunks}
	return res
}

// drain pops the view's heap to its fixpoint, deleting the highest-weight
// deletable edge of the view's nets each step.
func (v *view) drain() {
	r := v.r
	for v.pq.Len() > 0 {
		it := heap.Pop(&v.pq).(item)
		ns := &r.nets[it.net]
		var alive, frozen []bool
		if it.horz {
			alive, frozen = ns.aliveH, ns.frozenH
		} else {
			alive, frozen = ns.aliveV, ns.frozenV
		}
		if !alive[it.edge] || frozen[it.edge] {
			continue
		}
		x, y := r.edgeOrigin(ns, int(it.edge), it.horz)
		w := r.edgeWeight(int(it.net), x, y, it.horz, v)
		if w < it.key-weightSlack {
			it.key = w
			heap.Push(&v.pq, it)
			continue
		}
		if r.disconnectsPins(ns, int(it.edge), it.horz) {
			frozen[it.edge] = true
			continue
		}
		// Delete the edge and release its expected utilization.
		alive[it.edge] = false
		ns.nAlive--
		if it.horz {
			v.bumpH(x, y, ns.rate, -0.5)
			v.bumpH(x+1, y, ns.rate, -0.5)
		} else {
			v.bumpV(x, y, ns.rate, -0.5)
			v.bumpV(x, y+1, ns.rate, -0.5)
		}
	}
}

// edgeOrigin recovers the global anchor region (x, y) of a local edge index.
func (r *Router) edgeOrigin(ns *netState, e int, horz bool) (int, int) {
	if horz {
		return ns.bbox.MinX + e%(ns.w-1), ns.bbox.MinY + e/(ns.w-1)
	}
	return ns.bbox.MinX + e%ns.w, ns.bbox.MinY + e/ns.w
}

// disconnectsPins reports whether removing edge e would disconnect the
// net's pin regions in its surviving subgraph. BFS from one pin with the
// edge masked.
func (r *Router) disconnectsPins(ns *netState, e int, horz bool) bool {
	if ns.npins <= 1 {
		return false
	}
	start := -1
	for v, isPin := range ns.pinMask {
		if isPin {
			start = v
			break
		}
	}
	visited := make([]bool, ns.w*ns.h)
	queue := make([]int, 0, ns.w*ns.h)
	visited[start] = true
	queue = append(queue, start)
	seen := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		vx, vy := v%ns.w, v/ns.w // local coords
		// Neighbors through alive, unmasked edges.
		try := func(nv int, edgeIdx int, edgeHorz bool) {
			var alive []bool
			if edgeHorz {
				alive = ns.aliveH
			} else {
				alive = ns.aliveV
			}
			if !alive[edgeIdx] || (edgeHorz == horz && edgeIdx == e) {
				return
			}
			if !visited[nv] {
				visited[nv] = true
				if ns.pinMask[nv] {
					seen++
				}
				queue = append(queue, nv)
			}
		}
		if vx > 0 {
			try(v-1, vy*(ns.w-1)+vx-1, true)
		}
		if vx < ns.w-1 {
			try(v+1, vy*(ns.w-1)+vx, true)
		}
		if vy > 0 {
			try(v-ns.w, (vy-1)*ns.w+vx, false)
		}
		if vy < ns.h-1 {
			try(v+ns.w, vy*ns.w+vx, false)
		}
	}
	return seen < ns.npins
}

// extract materializes the surviving edges into trees and exact usage.
func (r *Router) extract() *Result {
	res := &Result{
		Trees: make([]Tree, len(r.nets)),
		Usage: grid.NewUsage(r.g),
	}
	r.extractRange(res.Trees, res.Usage, 0, len(r.nets))
	return res
}

// extractChunk is the net count each parallel extraction task handles.
const extractChunk = 256

// extractParallel materializes trees and usage with the per-net work
// fanned out over the pool via mapChunks. Chunk boundaries are a pure
// function of the net count, tree slots are disjoint, and per-chunk
// usage tallies hold integer counts, so the summed usage is exact and the
// result matches sequential extract byte for byte at any worker count.
func (r *Router) extractParallel(ctx context.Context, pool Pool) (*Result, error) {
	n := len(r.nets)
	if n <= extractChunk {
		return r.extract(), nil
	}
	res := &Result{
		Trees: make([]Tree, n),
		Usage: grid.NewUsage(r.g),
	}
	usages := make([]*grid.Usage, (n+extractChunk-1)/extractChunk)
	err := mapChunks(ctx, pool, "extract", n, extractChunk, func(c, lo, hi int) error {
		usages[c] = grid.NewUsage(r.g)
		r.extractRange(res.Trees, usages[c], lo, hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range usages {
		for i := range u.H {
			res.Usage.H[i] += u.H[i]
			res.Usage.V[i] += u.V[i]
		}
	}
	return res, nil
}

// extractRange builds trees[lo:hi] and accumulates their exact usage.
func (r *Router) extractRange(trees []Tree, usage *grid.Usage, lo, hi int) {
	for ni := lo; ni < hi; ni++ {
		ns := &r.nets[ni]
		tree := Tree{Net: ns.id}
		hTouched := make(map[geom.Point]bool)
		vTouched := make(map[geom.Point]bool)
		for e, alive := range ns.aliveH {
			if !alive {
				continue
			}
			x, y := r.edgeOrigin(ns, e, true)
			tree.Edges = append(tree.Edges, Edge{
				From: geom.Point{X: x, Y: y}, To: geom.Point{X: x + 1, Y: y},
			})
			hTouched[geom.Point{X: x, Y: y}] = true
			hTouched[geom.Point{X: x + 1, Y: y}] = true
		}
		for e, alive := range ns.aliveV {
			if !alive {
				continue
			}
			x, y := r.edgeOrigin(ns, e, false)
			tree.Edges = append(tree.Edges, Edge{
				From: geom.Point{X: x, Y: y}, To: geom.Point{X: x, Y: y + 1},
			})
			vTouched[geom.Point{X: x, Y: y}] = true
			vTouched[geom.Point{X: x, Y: y + 1}] = true
		}
		regionSet := make(map[geom.Point]bool, len(hTouched)+len(vTouched))
		for p := range hTouched { //detcheck:allow maporder each key hits a distinct usage slot exactly once with +1.0, so the float adds commute bit-exactly
			regionSet[p] = true
			usage.H[r.g.Index(p)]++
		}
		for p := range vTouched { //detcheck:allow maporder each key hits a distinct usage slot exactly once with +1.0, so the float adds commute bit-exactly
			regionSet[p] = true
			usage.V[r.g.Index(p)]++
		}
		// Pin regions are part of the route even when edgeless.
		for v, isPin := range ns.pinMask {
			if isPin {
				p := geom.Point{X: ns.bbox.MinX + v%ns.w, Y: ns.bbox.MinY + v/ns.w}
				regionSet[p] = true
			}
		}
		// Emit regions in scan order: downstream consumers iterate Regions,
		// and map order would leak nondeterminism into reports.
		tree.Regions = orderutil.SortedKeysFunc(regionSet, func(a, b geom.Point) int {
			if a.Y != b.Y {
				return cmp.Compare(a.Y, b.Y)
			}
			return cmp.Compare(a.X, b.X)
		})
		trees[ni] = tree
	}
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

// Connected verifies the tree spans all its pin regions (used by tests).
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
// regions (used by tests).
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
