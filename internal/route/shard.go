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
// labelled label(i) when tracing, and adds their pops to their router's
// count. Views write only their private deltas and read the base, which no
// drain writes, so the drains are independent; each drains in a workspace
// its router lends for the task.
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
		tasks[i] = func() error { v.drainLent(); return nil }
	}
	if err := pool.RunTasks(ctx, cat, labels, tasks); err != nil {
		return err
	}
	for _, v := range views {
		v.r.pops += v.pops
	}
	return nil
}

// ShardConfig carries RunSharded's observational settings. The tile
// decomposition is part of the algorithm definition and fixed: nets group
// by bounding-box center on a min(8, cols)×min(8, rows) tile grid
// (tiling), and boundary reconciliation runs at most maxReconcileRounds
// rounds, so two runs on one problem produce byte-identical results at
// any worker count.
type ShardConfig struct {
	// Trace, when enabled, records Phase I spans: one per pool task (seed
	// chunk, shard drain, reconciliation drain), named and on the
	// executing worker's lane, plus the serial sections — queue split,
	// delta merge, each reconciliation round, and tree extraction — on
	// Lane. The delta merge and each round carry the items their drains
	// popped.
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
//  2. Parallel drain: each group drains its own queue against the frozen
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
		ds = r.drainState(tiles)
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
// takes its members' items from the seeded ones. The live views drain as
// one pool batch; then every group's window merges into the base in group
// order — a replayed tile through the same window.merge as a live one —
// so the float-addition order into the base is fixed. clean is nil for a
// from-scratch run; a resume passes one entry per group (nil where the
// group re-drains) and its drain spans are named "eco shard". The returned
// tiles, one per group, are what a DrainState captures.
func (r *Router) drainTiles(ctx context.Context, pool Pool, cfg ShardConfig, groups [][]int, tileIDs []int, wins []geom.Rect, clean []*tileSnap) ([]tileSnap, error) {
	owner := make([]int32, len(r.nets)) // net -> live view
	tiles := make([]tileSnap, len(groups))
	var counts []int // per view: its share of the seeded items
	var live []int   // view index -> group index
	for gi, members := range groups {
		if clean != nil && clean[gi] != nil {
			tiles[gi] = *clean[gi]
			continue
		}
		// The seeded items are exactly the live groups' nets' edges.
		items := 0
		for _, ni := range members {
			owner[ni] = int32(len(live))
			items += r.nets[ni].numEdges()
		}
		counts = append(counts, items)
		live = append(live, gi)
	}

	// Split the seeded items across the live views, in place. The total
	// order on items (see item.order) makes each view's pop sequence
	// independent of how its share is arranged.
	ssp := cfg.Trace.Start(cfg.Lane, "route", "queue split").Arg("shards", int64(len(live)))
	shares := splitItems(r.seeded, owner, counts)
	r.free, r.seeded = r.seeded[:0], nil
	ssp.End()
	views := make([]*view, len(live))
	for vi, seed := range shares {
		views[vi] = newView(r, wins[live[vi]], seed)
	}
	pops := r.pops

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
	msp := cfg.Trace.Start(cfg.Lane, "route", "delta merge").Arg("shards", int64(len(groups))).Arg("pops", int64(r.pops-pops))
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
// merge: the tiles it returned and every net's deletion state. It shares
// the router's records, pins, pin mask and spine distances, which nothing
// writes after seeding, and owns one clone of the flags slab, which
// reconciliation goes on to write.
func (r *Router) drainState(tiles []tileSnap) *DrainState {
	ds := &DrainState{cfg: r.cfg, grid: *r.g, netSlabs: r.netSlabs, tiles: tiles}
	ds.flags = slices.Clone(r.flags)
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
		stats.ReconcileComponents++
		stats.Reconciled += len(ripped)
		stats.LargestComponent = max(stats.LargestComponent, len(ripped))
		rsp := cfg.Trace.Start(cfg.Lane, "route", "reconcile").Arg("round", int64(round)).Arg("nets", int64(len(ripped)))
		pops := r.pops
		err := r.reconcileRound(ctx, pool, cfg, round, ripped)
		rsp.Arg("pops", int64(r.pops-pops)).End()
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
// members' bounding boxes); empty tiles are dropped. The groups are
// consecutive ranges of one member array, filled by a counting sort. It
// reads only the boxes layout sets, so an ECO resume classifies tiles
// with it before any net is seeded.
func (r *Router) partition() (groups [][]int, tileIDs []int, wins []geom.Rect) {
	cols, rows := r.g.Cols, r.g.Rows
	tileCols, tileRows := tiling(cols, rows)
	tileW := (cols + tileCols - 1) / tileCols
	tileH := (rows + tileRows - 1) / tileRows
	tileOf := func(ni int) int {
		b := r.nets[ni].bbox
		tx := min(((b.MinX+b.MaxX)/2)/tileW, tileCols-1)
		ty := min(((b.MinY+b.MaxY)/2)/tileH, tileRows-1)
		return ty*tileCols + tx
	}
	// end[t] counts tile t's nets, then holds where its range ends: each
	// net is placed at its tile's cursor, which starts where the range
	// before it ends.
	end := make([]int, tileCols*tileRows)
	for ni := range r.nets {
		end[tileOf(ni)]++
	}
	nonEmpty, sum := 0, 0
	for t, n := range end {
		if n > 0 {
			nonEmpty++
		}
		end[t] = sum
		sum += n
	}
	members := make([]int, len(r.nets))
	for ni := range r.nets {
		t := tileOf(ni)
		members[end[t]] = ni
		end[t]++
	}
	groups = make([][]int, 0, nonEmpty)
	tileIDs = make([]int, 0, nonEmpty)
	wins = make([]geom.Rect, 0, nonEmpty)
	lo := 0
	for t, hi := range end {
		if hi == lo {
			continue
		}
		nets := members[lo:hi:hi]
		win := r.nets[nets[0]].bbox
		for _, ni := range nets[1:] {
			win = unionRect(win, r.nets[ni].bbox)
		}
		groups = append(groups, nets)
		tileIDs = append(tileIDs, t)
		wins = append(wins, win)
		lo = hi
	}
	return groups, tileIDs, wins
}

// reconcileRound rips up and re-routes one round's overflowed nets. Rip-up
// is serial in ascending net order: reseed writes the shared base arrays
// and computes fresh base weights, so its order is part of the algorithm
// definition. The ripped nets then drain as one view over the union of
// their bounding boxes, a one-task pool batch, whose window merges into the
// base. The items go in the tile drains' freed array when they fit, which
// from scratch they always do: a round re-seeds some of the nets seeding
// pushed.
//
// Bounding-box-disjoint clusters of ripped nets drain in that one queue as
// they would drain alone (DESIGN.md §10): a net's deletion loop reads
// utilization and writes deltas only inside its own box, so the pop
// sequence of the merged queue restricted to one cluster is that cluster's
// own sequence under the total order on items.
func (r *Router) reconcileRound(ctx context.Context, pool Pool, cfg ShardConfig, round int, ripped []int) error {
	win := r.nets[ripped[0]].bbox
	items := 0
	for _, ni := range ripped {
		win = unionRect(win, r.nets[ni].bbox)
		items += r.nets[ni].numEdges()
	}
	seed := r.free[:0]
	if cap(seed) < items {
		seed = make([]item, 0, items)
	}
	for _, ni := range ripped {
		r.reseed(ni, &seed)
	}
	v := newView(r, win, seed)
	err := drainViews(ctx, pool, cfg.Trace, "reconcile", []*view{v}, func(int) string {
		return fmt.Sprintf("reconcile %d (%d nets)", round, len(ripped))
	})
	if err != nil {
		return err
	}
	v.merge(&r.base)
	r.free = seed
	return nil
}

// splitItems partitions items in place so that each view's items, by
// owner[net], are contiguous in view order (counts[vi] of them, which must
// add up to len(items)), and returns view vi's share as a subslice capped
// at its own length. The cap matters: radixQueue.init carves its last,
// partly filled chunk from spare capacity, so an uncapped share would let
// one view's queue write over the next view's items.
func splitItems(items []item, owner []int32, counts []int) [][]item {
	bound := make([]int, len(counts)+1) // view vi's share is items[bound[vi]:bound[vi+1]]
	for vi, n := range counts {
		bound[vi+1] = bound[vi] + n
	}
	// Settle each view's slots in turn: an item that belongs to a later
	// view swaps into that view's next unsettled slot, so every swap
	// settles one item for good.
	next := slices.Clone(bound[:len(counts)])
	shares := make([][]item, len(counts))
	for vi := range counts {
		for next[vi] < bound[vi+1] {
			it := items[next[vi]]
			if ov := owner[it.net]; int(ov) != vi {
				items[next[vi]], items[next[ov]] = items[next[ov]], it
				next[ov]++
				continue
			}
			next[vi]++
		}
		shares[vi] = items[bound[vi]:bound[vi+1]:bound[vi+1]]
	}
	return shares
}

// overflowNets returns, in ascending net order, the nets whose trees hold a
// track in a region whose exact usage exceeds capacity in that direction.
// These are the candidates boundary reconciliation re-routes. The result
// is the router's, valid until the next call.
//
// A net holds a track in a direction at both end regions of every
// surviving edge in it, however many of its edges meet there. So a first
// pass counts, per region and direction, the nets holding a track there:
// a net's edge ends bump the count only where the region's stamp — one
// plus the last net counted — is not the net's own. Then each net's edge
// ends are tested against those counts, once. The counts and the result
// live on the router, so a round after the first reuses them.
func (r *Router) overflowNets() []int {
	nr := r.g.NumRegions()
	if r.overUse == nil {
		r.overUse = make([]int32, 4*nr) // [H use | V use | H stamp | V stamp] per region
	} else {
		clear(r.overUse)
	}
	use := r.overUse
	limit := [2]int32{int32(r.g.HC), int32(r.g.VC)}
	for ni := range r.nets {
		stamp := int32(ni + 1)
		r.trackEnds(ni, func(k int) bool {
			if use[2*nr+k] != stamp {
				use[2*nr+k] = stamp
				use[k]++
			}
			return false
		})
	}
	out := r.overNets[:0]
	for ni := range r.nets {
		if r.trackEnds(ni, func(k int) bool { return use[k] > limit[k/nr] }) {
			out = append(out, ni)
		}
	}
	r.overNets = out
	return out
}

// trackEnds calls f on both end regions of each of net ni's surviving
// edges — k is the region's grid index for a horizontal edge and the
// number of regions plus it for a vertical one — and stops at the first
// call that returns true, which it reports.
func (r *Router) trackEnds(ni int, f func(k int) bool) bool {
	cols, nr := r.g.Cols, r.g.NumRegions()
	ns := r.graph(ni)
	e := 0
	for y := ns.bbox.MinY; y <= ns.bbox.MaxY; y++ {
		for x := ns.bbox.MinX; x < ns.bbox.MaxX; x, e = x+1, e+1 {
			if i := y*cols + x; ns.flagsH[e]&edgeDeleted == 0 && (f(i) || f(i+1)) {
				return true
			}
		}
	}
	e = 0
	for y := ns.bbox.MinY; y < ns.bbox.MaxY; y++ {
		for x := ns.bbox.MinX; x <= ns.bbox.MaxX; x, e = x+1, e+1 {
			if i := nr + y*cols + x; ns.flagsV[e]&edgeDeleted == 0 && (f(i) || f(i+cols)) {
				return true
			}
		}
	}
	return false
}

// reseed rips up net ni — its surviving edges release their utilization
// from the base, every edge flag clears, and bumpNet and pushNet leave it
// exactly as seeding did: the full connection graph's utilization in the
// base and its edges in items with fresh base weights.
func (r *Router) reseed(ni int, items *[]item) {
	ns := r.graph(ni)
	for e := range ns.aliveEdges() {
		r.base.bumpEdge(e.From.X, e.From.Y, e.Horizontal(), ns.rate, -0.5)
	}
	clear(ns.flagsH)
	clear(ns.flagsV)
	r.bumpNet(ni)
	r.pushNet(items, ni)
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
