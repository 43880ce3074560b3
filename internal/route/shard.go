package route

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Pool runs a batch of independent tasks, possibly concurrently. It is a
// barrier: it returns once every task has finished, with the first task
// error in submission order, or the context's error on cancellation
// (unstarted tasks are skipped). cat and labels name the tasks' trace
// spans — task i is labels[i], or cat when labels is nil or labels[i] is
// empty — and are display-only. The concurrent region-solve engine
// (internal/engine) implements Pool; the router depends only on this
// interface so it stays engine-agnostic. Every entry point replaces a nil
// Pool with serialPool.
type Pool interface {
	RunTasks(ctx context.Context, cat string, labels []string, tasks []func() error) error
}

// serialPool runs tasks one at a time, in submission order, on the
// caller's goroutine, checking ctx before each. Each task's span goes on
// lane under the engine's naming, so a serial trace shows the same
// taxonomy as a pooled one.
type serialPool struct {
	trace *obs.Tracer
	lane  obs.Lane
}

func (p serialPool) RunTasks(ctx context.Context, cat string, labels []string, tasks []func() error) error {
	for i, task := range tasks {
		if err := ctx.Err(); err != nil {
			return err
		}
		name := cat
		if i < len(labels) && labels[i] != "" {
			name = labels[i]
		}
		sp := p.trace.Start(p.lane, cat, name).Arg("task", int64(i))
		err := task()
		sp.End()
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// orSerial returns pool, or a serialPool tracing onto lane when pool is
// nil.
func orSerial(pool Pool, trace *obs.Tracer, lane obs.Lane) Pool {
	if pool == nil {
		return serialPool{trace: trace, lane: lane}
	}
	return pool
}

// drainViews drains every view to its fixpoint as one pool batch, task i
// labelled label(i) when tracing. Views write only their private deltas
// and read the base, which no drain writes, so the drains are independent.
func drainViews(ctx context.Context, pool Pool, trace *obs.Tracer, cat string, views []*view, label func(i int) string) error {
	var labels []string
	if trace.Enabled() {
		labels = make([]string, len(views))
		for i := range views {
			labels[i] = label(i)
		}
	}
	tasks := make([]func() error, len(views))
	for i, v := range views {
		tasks[i] = func() error { v.drain(); return nil }
	}
	return pool.RunTasks(ctx, cat, labels, tasks)
}

// ShardConfig carries RunSharded's observational settings. The tile
// decomposition is part of the algorithm definition and fixed: nets group
// by bounding-box center on a min(8, cols)×min(8, rows) tile grid
// (tiling), and boundary reconciliation runs at most maxReconcileRounds
// rounds, so two runs on one problem produce byte-identical results at
// any worker count.
type ShardConfig struct {
	// Trace, when enabled, records Phase I spans: one per pool task (seed
	// chunk, shard drain, reconcile component), named and on the executing
	// worker's lane, plus the serial sections — heap split, delta merge,
	// each reconciliation round, and tree extraction — on Lane.
	// Tracing never changes the routing result.
	Trace *obs.Tracer

	// Lane is the caller's trace lane for the serial-section spans
	// (core passes the flow runner's lane).
	Lane obs.Lane
}

// maxReconcileRounds bounds the boundary-reconciliation loop.
const maxReconcileRounds = 2

// tiling returns the tile grid RunSharded groups nets on for a cols×rows
// region grid: min(8, cols)×min(8, rows) tiles.
func tiling(cols, rows int) (tileCols, tileRows int) { return min(8, cols), min(8, rows) }

// RunSharded executes the iterative deletion sharded across tile groups:
//
//  1. Partition: every net joins the tile containing its bounding-box
//     center, so each net belongs to exactly one group and group membership
//     is a pure function of the input (never of the worker count).
//  2. Parallel drain: each group drains its own heap against the frozen
//     post-seeding base utilization plus the group's private deltas. Foreign
//     groups' deletions are invisible until the merge, which makes every
//     group's fixpoint independent of scheduling — and conservatively
//     pessimistic, since expected utilization only decreases as foreign
//     graphs shrink.
//  3. Merge: group deltas fold into the base arrays in tile order, giving
//     one deterministic global utilization state.
//  4. Reconcile: for at most maxReconcileRounds rounds, nets whose trees
//     cross a capacity-overflowed region (almost always a tile boundary the
//     frozen state under-penalized) are ripped up and re-routed
//     sequentially, in net order, against the now-accurate state.
//
// Every step is either embarrassingly parallel over private state or
// sequential in a fixed order, so the Result is byte-identical whether the
// pool runs one worker or many. A nil pool runs everything serially.
func (r *Router) RunSharded(ctx context.Context, pool Pool, cfg ShardConfig) (*Result, error) {
	res, _, err := r.runSharded(ctx, pool, cfg, false)
	return res, err
}

// RunShardedState is RunSharded plus a DrainState capture: the post-drain,
// pre-reconciliation snapshot an ECO re-solve (RunShardedResume) can later
// resume from. The Result is byte-identical to RunSharded's; capture costs
// one copy of the per-net deletion flags and shares everything immutable.
func (r *Router) RunShardedState(ctx context.Context, pool Pool, cfg ShardConfig) (*Result, *DrainState, error) {
	return r.runSharded(ctx, pool, cfg, true)
}

func (r *Router) runSharded(ctx context.Context, pool Pool, cfg ShardConfig, capture bool) (*Result, *DrainState, error) {
	pool = orSerial(pool, cfg.Trace, cfg.Lane)
	groups, tileIDs, wins := r.partition()
	tiles, err := r.drainTiles(ctx, pool, cfg, groups, tileIDs, wins, nil)
	if err != nil {
		return nil, nil, err
	}
	var ds *DrainState
	if capture {
		ds = r.drainState(tiles, nil, nil)
	}
	res, err := r.finishSharded(ctx, pool, cfg, groups)
	if err != nil {
		return nil, nil, err
	}
	return res, ds, nil
}

// drainTiles is the one Phase I tile driver, shared by the from-scratch
// run and the ECO resume. Group gi either replays clean[gi], a tile
// captured by an earlier run, or drains live: a fresh view over wins[gi]
// takes its members' items from the seeded heap. The live views drain as
// one pool batch; then every group's window merges into the base in group
// order — a replayed tile through the same window.merge as a live one —
// so the float-addition order into the base is fixed. clean is nil for a
// from-scratch run; a resume passes one entry per group (nil where the
// group re-drains) and its drain spans are named "eco shard". The returned
// tiles, one per group, are what a DrainState captures.
func (r *Router) drainTiles(ctx context.Context, pool Pool, cfg ShardConfig, groups [][]int, tileIDs []int, wins []geom.Rect, clean []*tileSnap) ([]tileSnap, error) {
	tiles := make([]tileSnap, len(groups))
	var views []*view
	var live []int                      // view index -> group index
	owner := make([]int32, len(r.nets)) // net index -> view index
	for gi, members := range groups {
		if clean != nil && clean[gi] != nil {
			tiles[gi] = *clean[gi]
			continue
		}
		// The seeded heap holds exactly the live groups' nets' edges.
		items := 0
		for _, ni := range members {
			owner[ni] = int32(len(views))
			items += r.nets[ni].numEdges()
		}
		v := newView(r, wins[gi])
		v.pq = make(edgeHeap, 0, items)
		views = append(views, v)
		live = append(live, gi)
	}

	// Split the seeded heap across the live views and restore heap order.
	// The total order on items (see item.before) makes each view's pop
	// sequence independent of how the global slice was interleaved.
	ssp := cfg.Trace.Start(cfg.Lane, "route", "heap split").Arg("shards", int64(len(views)))
	for _, it := range r.pq {
		v := views[owner[it.net]]
		v.pq = append(v.pq, it)
	}
	r.pq = nil
	for _, v := range views {
		v.pq.init()
	}
	ssp.End()

	name := "shard"
	if clean != nil {
		name = "eco shard"
	}
	err := drainViews(ctx, pool, cfg.Trace, "shard", views, func(vi int) string {
		gi := live[vi]
		return fmt.Sprintf("%s %d (%d nets)", name, gi, len(groups[gi]))
	})
	if err != nil {
		return nil, err
	}

	// Deterministic merge: group order, then window scan order within each.
	msp := cfg.Trace.Start(cfg.Lane, "route", "delta merge").Arg("shards", int64(len(groups)))
	for vi, gi := range live {
		tiles[gi] = tileSnap{tile: tileIDs[gi], members: groups[gi], window: views[vi].window}
	}
	for gi := range tiles {
		tiles[gi].merge(&r.base)
	}
	msp.End()
	return tiles, nil
}

// drainState captures the resumable snapshot right after drainTiles'
// merge: the tiles it returned and every net's deletion state. A resume
// passes prev and its re-drain flags; nets that did not re-drain keep
// prev's (immutable) snapshot entries.
func (r *Router) drainState(tiles []tileSnap, prev *DrainState, redrain []bool) *DrainState {
	ds := &DrainState{
		cfg:   r.cfg,
		grid:  *r.g,
		snaps: make([]netSnap, len(r.nets)),
		tiles: tiles,
	}
	for i := range r.nets {
		if prev != nil && !redrain[i] {
			ds.snaps[i] = prev.snaps[i]
		} else {
			ds.snaps[i] = netSnap{ns: r.nets[i].clone(), pins: r.inPins[i]}
		}
	}
	return ds
}

// finishSharded runs the tail every sharded execution shares — bounded
// boundary reconciliation, then tree extraction — against the merged
// global state. The ECO resume path reaches the same code, so a
// resumed run reconciles and extracts exactly like a from-scratch one.
func (r *Router) finishSharded(ctx context.Context, pool Pool, cfg ShardConfig, groups [][]int) (*Result, error) {
	stats := RunStats{Shards: len(groups), SeedChunks: r.seedChunks}
	for _, members := range groups {
		stats.LargestShard = max(stats.LargestShard, len(members))
	}
	for round := 0; round < maxReconcileRounds; round++ {
		ripped := r.overflowNets()
		if len(ripped) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats.ReconcileRounds++
		stats.Reconciled += len(ripped)
		rsp := cfg.Trace.Start(cfg.Lane, "route", "reconcile").Arg("round", int64(round)).Arg("nets", int64(len(ripped)))
		err := r.reconcileRound(ctx, pool, cfg, round, ripped, &stats)
		rsp.End()
		if err != nil {
			return nil, err
		}
	}

	xsp := cfg.Trace.Start(cfg.Lane, "route", "tree extraction")
	res := r.extract()
	xsp.End()
	res.Stats = stats
	return res, nil
}

// partition groups net indices by the tile containing their bounding-box
// center. Groups are emitted in tile scan order with their nets in input
// order, paired with their tile indices and windows (the union of their
// members' bounding boxes); empty tiles are dropped.
func (r *Router) partition() ([][]int, []int, []geom.Rect) {
	bboxes := make([]geom.Rect, len(r.nets))
	for i := range r.nets {
		bboxes[i] = r.nets[i].bbox
	}
	return partitionRects(bboxes, r.g.Cols, r.g.Rows)
}

// partitionRects is partition over bare bounding boxes — the single
// implementation, shared with the ECO resume path, which must classify
// tiles before any net state exists.
func partitionRects(bboxes []geom.Rect, cols, rows int) (groups [][]int, tileIDs []int, wins []geom.Rect) {
	tileCols, tileRows := tiling(cols, rows)
	tileW := (cols + tileCols - 1) / tileCols
	tileH := (rows + tileRows - 1) / tileRows
	tiles := make([][]int, tileCols*tileRows)
	for ni := range bboxes {
		b := bboxes[ni]
		tx := min(((b.MinX+b.MaxX)/2)/tileW, tileCols-1)
		ty := min(((b.MinY+b.MaxY)/2)/tileH, tileRows-1)
		t := ty*tileCols + tx
		tiles[t] = append(tiles[t], ni)
	}
	for t, nets := range tiles {
		if len(nets) == 0 {
			continue
		}
		win := bboxes[nets[0]]
		for _, ni := range nets[1:] {
			win = unionRect(win, bboxes[ni])
		}
		groups = append(groups, nets)
		tileIDs = append(tileIDs, t)
		wins = append(wins, win)
	}
	return groups, tileIDs, wins
}

// reconcileRound rips up and re-routes one round's overflowed nets,
// sharded by boundary-region connected components: ripped nets whose
// bounding boxes transitively overlap form one component, and distinct
// components touch disjoint region sets — a net's deletion loop reads
// utilization and writes deltas only inside its own bounding box — so
// independent overflow clusters reconcile concurrently with the same
// total-order tie-breaks (DESIGN.md §10: the pop sequence of a merged
// heap restricted to one component equals that component's own pop
// sequence, because foreign components never change its weights).
//
// Rip-up stays serial in ascending net order: reseed writes the shared
// base arrays and computes fresh base weights, so its order is part of
// the algorithm definition. Delta merges run serially in component order;
// components' nonzero deltas occupy disjoint regions, so merge order
// cannot change a sum.
func (r *Router) reconcileRound(ctx context.Context, pool Pool, cfg ShardConfig, round int, ripped []int, stats *RunStats) error {
	comps := r.components(ripped)
	stats.ReconcileComponents += len(comps)
	cviews := make([]*view, len(comps))
	compOf := make(map[int]int, len(ripped))
	for ci, members := range comps {
		if len(members) > stats.LargestComponent {
			stats.LargestComponent = len(members)
		}
		win := r.nets[members[0]].bbox
		for _, ni := range members[1:] {
			win = unionRect(win, r.nets[ni].bbox)
		}
		items := 0
		for _, ni := range members {
			compOf[ni] = ci
			items += r.nets[ni].numEdges()
		}
		cviews[ci] = newView(r, win)
		cviews[ci].pq = make(edgeHeap, 0, items)
	}
	for _, ni := range ripped {
		r.reseed(ni, &cviews[compOf[ni]].pq)
	}
	for _, v := range cviews {
		v.pq.init()
	}
	err := drainViews(ctx, pool, cfg.Trace, "reconcile", cviews, func(ci int) string {
		return fmt.Sprintf("reconcile %d comp %d (%d nets)", round, ci, len(comps[ci]))
	})
	if err != nil {
		return err
	}
	for _, v := range cviews {
		v.merge(&r.base)
	}
	return nil
}

// components groups the ripped nets into bounding-box-overlap connected
// components. The grouping is deterministic: components are ordered by
// their smallest member and members ascend within each (the input is
// ascending). Two cell rectangles intersect exactly when they share a
// cell, so each net unites with the first ripped net that covered each
// cell of its bounding box: the cost is the nets' total bounding-box
// area, not the pair count.
func (r *Router) components(nets []int) [][]int {
	parent := make([]int, len(nets))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	cover := make([]int32, r.g.NumRegions()) // 1 + first covering position in nets, 0 for none
	for i, ni := range nets {
		b := r.nets[ni].bbox
		for y := b.MinY; y <= b.MaxY; y++ {
			for c := y*r.g.Cols + b.MinX; c <= y*r.g.Cols+b.MaxX; c++ {
				if cover[c] == 0 {
					cover[c] = int32(i + 1)
					continue
				}
				ri, rj := find(int(cover[c]-1)), find(i)
				if ri != rj {
					if rj < ri {
						ri, rj = rj, ri
					}
					parent[rj] = ri
				}
			}
		}
	}
	groups := make(map[int]int) // root -> component index
	var out [][]int
	for i, ni := range nets {
		root := find(i)
		ci, ok := groups[root]
		if !ok {
			ci = len(out)
			groups[root] = ci
			out = append(out, nil)
		}
		out[ci] = append(out[ci], ni)
	}
	return out
}

// overflowNets returns, in ascending net order, the nets whose trees hold a
// track in a region whose exact usage exceeds capacity in that direction.
// These are the candidates boundary reconciliation re-routes.
func (r *Router) overflowNets() []int {
	useH := make([]int, r.g.NumRegions())
	useV := make([]int, r.g.NumRegions())
	tracks := make([][2][]int, len(r.nets)) // per net: [H regions, V regions]
	for ni := range r.nets {
		h, v := r.trackRegions(&r.nets[ni])
		tracks[ni] = [2][]int{h, v}
		for _, i := range h {
			useH[i]++
		}
		for _, i := range v {
			useV[i]++
		}
	}
	var out []int
	for ni, t := range tracks {
		if slices.ContainsFunc(t[0], func(i int) bool { return useH[i] > r.g.HC }) ||
			slices.ContainsFunc(t[1], func(i int) bool { return useV[i] > r.g.VC }) {
			out = append(out, ni)
		}
	}
	return out
}

// reseed rips up net ni — its surviving edges release their utilization
// from the base, every edge resets, and bumpNet and pushNet leave it
// exactly as seeding did: the full connection graph's utilization in the
// base and its edges on pq with fresh base weights.
func (r *Router) reseed(ni int, pq *edgeHeap) {
	ns := &r.nets[ni]
	for e := range r.aliveEdges(ns) {
		r.base.bumpEdge(e.From.X, e.From.Y, e.Horizontal(), ns.rate, -0.5)
	}
	ns.resetEdges()
	r.bumpNet(ni)
	r.pushNet(pq, ni)
}

func unionRect(a, b geom.Rect) geom.Rect {
	if b.MinX < a.MinX {
		a.MinX = b.MinX
	}
	if b.MinY < a.MinY {
		a.MinY = b.MinY
	}
	if b.MaxX > a.MaxX {
		a.MaxX = b.MaxX
	}
	if b.MaxY > a.MaxY {
		a.MaxY = b.MaxY
	}
	return a
}
