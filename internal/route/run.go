package route

import (
	"iter"
	"slices"

	"repro/internal/geom"
)

// weightSlack is the tolerance for treating a recomputed edge weight as
// current; weights only decrease (see package comment), so a pop whose
// recomputed weight sits within the slack of its key is the true maximum.
const weightSlack = 1e-6

// window is a grid rectangle plus the expected utilization over it: per
// direction, the segment count and the sensitivity-rate sums feeding
// Formula (3), stored row-major over the rectangle. The router's base
// state is a window over the whole grid; a drain's private deltas and an
// ECO tile's captured deltas are windows over the tile group's rectangle.
type window struct {
	rect geom.Rect
	cols int // rect width

	nnsH, sumSH, sumS2H []float64
	nnsV, sumSV, sumS2V []float64
}

// newWindow returns a zeroed window over rect whose six arrays are capped
// ranges of one allocation.
func newWindow(rect geom.Rect) window {
	n := rect.Cells()
	w := window{rect: rect, cols: rect.Width()}
	all := make([]float64, 6*n)
	for k, a := range w.arrays() {
		*a = all[k*n : (k+1)*n : (k+1)*n]
	}
	return w
}

// arrays lists the six arrays in wire order.
func (w *window) arrays() [6]*[]float64 {
	return [6]*[]float64{&w.nnsH, &w.sumSH, &w.sumS2H, &w.nnsV, &w.sumSV, &w.sumS2V}
}

// widx maps a global region coordinate into the window's arrays.
func (w *window) widx(x, y int) int { return (y-w.rect.MinY)*w.cols + (x - w.rect.MinX) }

// bumpH adjusts the expected horizontal utilization sums of region (x,y).
func (w *window) bumpH(x, y int, rate, delta float64) {
	i := w.widx(x, y)
	w.nnsH[i] += delta
	w.sumSH[i] += delta * rate
	w.sumS2H[i] += delta * rate * rate
}

func (w *window) bumpV(x, y int, rate, delta float64) {
	i := w.widx(x, y)
	w.nnsV[i] += delta
	w.sumSV[i] += delta * rate
	w.sumS2V[i] += delta * rate * rate
}

// bumpEdge adjusts both end regions of the edge anchored at (x,y).
func (w *window) bumpEdge(x, y int, horz bool, rate, delta float64) {
	if horz {
		w.bumpH(x, y, rate, delta)
		w.bumpH(x+1, y, rate, delta)
	} else {
		w.bumpV(x, y, rate, delta)
		w.bumpV(x, y+1, rate, delta)
	}
}

// merge adds w's values into base, which must contain w's rectangle.
// Sequential only: callers merge windows in a fixed order, so every base
// slot receives its additions in a reproducible order.
func (w *window) merge(base *window) {
	src, dst := w.arrays(), base.arrays()
	for k := range src {
		s, d := *src[k], *dst[k]
		for y := w.rect.MinY; y <= w.rect.MaxY; y++ {
			for x := w.rect.MinX; x <= w.rect.MaxX; x++ {
				d[base.widx(x, y)] += s[w.widx(x, y)]
			}
		}
	}
}

// view is one deletion context: the router's frozen base plus a private
// delta window, and the items it is responsible for.
//
// Sequential Run uses a single view spanning the whole grid. RunSharded
// gives every tile group its own view, so concurrent drains never write
// shared memory: a group reads the base (immutable while drains run) plus
// only its own deltas, which is exactly the frozen-foreign-state semantics
// the determinism argument in shard.go builds on. A view owns only what
// outlives its drain (its window, which a DrainState captures per tile)
// and its share of the seeded items; it drains in a workspace its router
// lends for the drain.
type view struct {
	window
	r    *Router
	seed []item // the view's share of the items, until its drain takes them
	pops int    // items drain popped
}

func newView(r *Router, rect geom.Rect, seed []item) *view {
	return &view{window: newWindow(rect), r: r, seed: seed}
}

// workspace is what a Phase I pool task works in while it runs: a drain's
// radix queue and bridge-test scratch, or a seed chunk's scratch. A router
// lends one to each task (borrow) and takes it back when the task ends
// (giveBack), so a route allocates one workspace per task running at once
// — at most the pool's worker count — not one per tile, component or
// chunk. Nothing a task leaves in one reaches a result: the queue pops in
// item.order's total order whatever chunks it holds, a bridge test reads
// only marks its own stamps wrote, and a seed chunk's estimate and BFS
// overwrite what they read.
type workspace struct {
	pq radixQueue
	bridge
	seed seedScratch
}

// bridge is the bridge test's scratch, reused across tests (see
// disconnectsPins). A local vertex is visited by the current test when
// its mark equals stamp (the search from the edge's first endpoint) or
// stamp+1 (from its second); older marks are stale. The stamp lives with
// the marks and keeps counting across views and nets, and a wrap clears
// the marks. qa and qb hold capacity for a whole bounding box, so the
// searches never reallocate. flagsH, flagsV and pinMask are the tested
// net's ranges of the router's slabs.
type bridge struct {
	mark   []uint32
	stamp  uint32
	qa, qb []int32

	flagsH, flagsV []uint8
	pinMask        []bool
}

// borrow lends a workspace: one a finished task gave back, or a new one.
// Pool tasks carry no worker identity, so the router keeps the returned
// workspaces on a list that lentMu guards.
func (r *Router) borrow() *workspace {
	r.lentMu.Lock()
	defer r.lentMu.Unlock()
	n := len(r.lent)
	if n == 0 {
		return new(workspace)
	}
	ws := r.lent[n-1]
	r.lent = r.lent[:n-1]
	return ws
}

// giveBack returns a workspace borrow lent, for the next task.
func (r *Router) giveBack(ws *workspace) {
	r.lentMu.Lock()
	r.lent = append(r.lent, ws)
	r.lentMu.Unlock()
}

// Run executes the iterative deletion to the fixpoint and extracts each
// net's Steiner tree. It is the sequential reference algorithm: one queue,
// one view spanning the grid. A Router is single-use — call exactly one of
// Run or RunSharded, once.
func (r *Router) Run() *Result {
	v := newView(r, r.g.Bounds(), r.seeded)
	r.seeded = nil
	v.drainLent()
	v.merge(&r.base)
	res := r.extract()
	res.Stats = RunStats{Shards: 1, LargestShard: len(r.nets), SeedChunks: r.seedChunks}
	return res
}

// drainLent drains v in a workspace its router lends for the drain.
func (v *view) drainLent() {
	ws := v.r.borrow()
	v.drain(ws)
	v.r.giveBack(ws)
}

// drain puts the view's items in ws's queue and pops it to its fixpoint,
// deleting the highest-weight deletable edge of the view's nets each step.
// A stale item goes back at its recomputed weight, which is below its key
// by more than the slack, so it sorts after itself: the radix queue's
// monotone rule holds.
func (v *view) drain(ws *workspace) {
	r, pq := v.r, &ws.pq
	pq.init(v.seed)
	v.seed = nil
	for pq.len() > 0 {
		it := pq.pop()
		v.pops++
		ns := &r.nets[it.net]
		e, horz := it.unpack()
		f := ns.flag(e, horz)
		if r.flags[f] != 0 { // deleted or frozen
			continue
		}
		x, y := ns.edgeOrigin(e, horz)
		w := r.edgeWeight(ns, x, y, horz, v)
		if w < it.key-weightSlack {
			it.key = w
			pq.push(it)
			continue
		}
		if ws.disconnectsPins(r, ns, e, horz) {
			r.flags[f] = edgeFrozen
			continue
		}
		// Delete the edge and release its expected utilization.
		r.flags[f] = edgeDeleted
		v.bumpEdge(x, y, horz, ns.rate, -0.5)
	}
}

// edgeOrigin recovers the global anchor region (x, y) of a local edge index.
func (ns *netState) edgeOrigin(e int, horz bool) (int, int) {
	if horz {
		return ns.bbox.MinX + e%(ns.w-1), ns.bbox.MinY + e/(ns.w-1)
	}
	return ns.bbox.MinX + e%ns.w, ns.bbox.MinY + e/ns.w
}

// disconnectsPins reports whether deleting the alive edge e would
// disconnect net ns's pin regions in its surviving subgraph.
//
// It needs the precondition that the pins are connected before the
// deletion. Every net in a queue starts from its full connection graph
// (build, a fresh restore, reseed) and drain deletes no edge this test
// rejects, so the precondition holds at every pop. Then the deletion
// disconnects the pins exactly when e is a bridge with pins on both sides.
// Two searches grow from e's endpoints in lockstep, one vertex each per
// step, with e masked. If they meet, e is no bridge. Otherwise the side
// whose search runs out first is a whole component, and with p pins on it
// the deletion disconnects iff 0 < p < npins. The work is proportional to
// the smaller side, and the scratch is br's, so warm scratch allocates
// nothing.
func (br *bridge) disconnectsPins(r *Router, ns *netState, e int, horz bool) bool {
	if ns.npins <= 1 {
		return false
	}
	br.flagsH = r.flags[ns.edgeH:ns.edgeV]
	br.flagsV = r.flags[ns.edgeV : ns.edgeV+ns.numV()]
	br.pinMask = r.pinMask[ns.vert : ns.vert+ns.w*ns.h]
	if n := ns.w * ns.h; len(br.mark) < n {
		br.mark = make([]uint32, n)
		br.qa, br.qb = make([]int32, 0, n), make([]int32, 0, n)
	}
	br.stamp += 2
	if br.stamp == 0 { // wrapped: every mark may look current
		clear(br.mark)
		br.stamp = 2
	}
	// Endpoints: a vertical edge's index is its lower vertex's; a
	// horizontal one skips one index per row.
	a, b := e, e+ns.w
	eh, ev := -1, e // the masked edge, per direction
	if horz {
		a = e + e/(ns.w-1)
		b = a + 1
		eh, ev = e, -1
	}
	sa := bridgeSearch{stamp: br.stamp, q: append(br.qa[:0], int32(a))}
	sb := bridgeSearch{stamp: br.stamp + 1, q: append(br.qb[:0], int32(b))}
	br.mark[a], br.mark[b] = sa.stamp, sb.stamp
	if br.pinMask[a] {
		sa.pins = 1
	}
	if br.pinMask[b] {
		sb.pins = 1
	}
	for {
		if sa.head == len(sa.q) {
			return 0 < sa.pins && sa.pins < ns.npins
		}
		if br.expand(ns, &sa, sb.stamp, eh, ev) {
			return false
		}
		if sb.head == len(sb.q) {
			return 0 < sb.pins && sb.pins < ns.npins
		}
		if br.expand(ns, &sb, sa.stamp, eh, ev) {
			return false
		}
	}
}

// bridgeSearch is one side of disconnectsPins: its stamp, its queue of
// visited local vertices with the next to expand at head, and the pin
// regions among them.
type bridgeSearch struct {
	stamp uint32
	q     []int32
	head  int
	pins  int
}

// expand visits the neighbours of s's next queued vertex through alive
// edges other than the masked one (horizontal index eh or vertical index
// ev; -1 masks nothing). It reports whether a neighbour carries other, the
// opposite search's stamp: the two searches met.
func (br *bridge) expand(ns *netState, s *bridgeSearch, other uint32, eh, ev int) bool {
	u := int(s.q[s.head])
	s.head++
	ux, uy := u%ns.w, u/ns.w
	if ux > 0 {
		if e := u - uy - 1; e != eh && br.flagsH[e]&edgeDeleted == 0 && br.visit(s, u-1, other) {
			return true
		}
	}
	if ux < ns.w-1 {
		if e := u - uy; e != eh && br.flagsH[e]&edgeDeleted == 0 && br.visit(s, u+1, other) {
			return true
		}
	}
	if uy > 0 {
		if e := u - ns.w; e != ev && br.flagsV[e]&edgeDeleted == 0 && br.visit(s, u-ns.w, other) {
			return true
		}
	}
	if uy < ns.h-1 {
		if e := u; e != ev && br.flagsV[e]&edgeDeleted == 0 && br.visit(s, u+ns.w, other) {
			return true
		}
	}
	return false
}

// visit reaches local vertex nv from search s: it reports true when the
// opposite search (stamp other) got there first, and otherwise queues nv
// for s unless s already has.
func (br *bridge) visit(s *bridgeSearch, nv int, other uint32) bool {
	switch br.mark[nv] {
	case s.stamp:
		return false
	case other:
		return true
	}
	br.mark[nv] = s.stamp
	s.q = append(s.q, int32(nv))
	if br.pinMask[nv] {
		s.pins++
	}
	return false
}

// extract materializes every net's surviving edges into its tree, in one
// serial pass. The trees share one backing array, sized by one count over
// the flags slab, each capped at its own edges.
func (r *Router) extract() *Result {
	n := 0
	for _, f := range r.flags {
		if f&edgeDeleted == 0 {
			n++
		}
	}
	edges := make([]Edge, 0, n)
	res := &Result{Trees: make([]Tree, len(r.nets))}
	for i := range r.nets {
		lo := len(edges)
		edges = slices.AppendSeq(edges, r.graph(i).aliveEdges())
		res.Trees[i] = Tree{Net: r.nets[i].id, Edges: edges[lo:len(edges):len(edges)]}
	}
	return res
}

// aliveEdges yields the net's surviving edges: horizontal ones first, each
// direction in local index order.
func (ns graph) aliveEdges() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		for e, f := range ns.flagsH {
			if f&edgeDeleted == 0 {
				x, y := ns.edgeOrigin(e, true)
				if !yield(Edge{From: geom.Point{X: x, Y: y}, To: geom.Point{X: x + 1, Y: y}}) {
					return
				}
			}
		}
		for e, f := range ns.flagsV {
			if f&edgeDeleted == 0 {
				x, y := ns.edgeOrigin(e, false)
				if !yield(Edge{From: geom.Point{X: x, Y: y}, To: geom.Point{X: x, Y: y + 1}}) {
					return
				}
			}
		}
	}
}
