package route

import (
	"container/heap"
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
)

// This file implements the ECO (engineering change order) re-solve path:
// RunShardedState captures a DrainState — the post-drain, pre-reconcile
// snapshot of a sharded run — and RunShardedResume replays an edited
// netlist against it, re-draining only the tile groups the edit actually
// invalidates.
//
// Correctness argument (DESIGN.md §11 carries the full version):
//
//   - Seeding bumps are replayed for EVERY net in ascending order, so the
//     base utilization arrays after seeding are bit-identical to a
//     from-scratch run on the edited netlist. Heap keys are pushed only
//     for nets in invalidated groups, interleaved at the same point of the
//     replay as from-scratch seeding would compute them; a key reads base
//     state only inside its net's bounding box, so the values match bit
//     for bit.
//   - A group is CLEAN only when its member list (and every member's
//     definition) is unchanged AND its window is disjoint from every
//     dirty rectangle — the old and new bounding boxes of every edited,
//     added, or removed net. A clean group's drain reads base state only
//     inside its window, where no edit left a trace, so its drain in the
//     edited run would reproduce the captured one exactly: the snapshot's
//     per-net deletion flags and per-window delta arrays stand in for
//     re-execution.
//   - Merges run in group order for ALL groups — invalidated groups merge
//     their freshly drained views, clean groups replay their captured
//     delta arrays through the identical loop — so the float-addition
//     order into the base arrays matches from-scratch exactly.
//   - Reconciliation and extraction then run on bit-identical global
//     state via the shared finishSharded tail.
//
// The edit set is derived, not declared: resume diffs the given nets
// against the snapshot's raw pin lists, so a caller cannot under-report
// an edit and corrupt the result.

// ECOStats reports how much work an ECO resume avoided. Every field is a
// pure function of (snapshot, edited netlist, tiling) — never of the pool
// — but the totals are reporting-only at higher layers because cache hit
// patterns are schedule-dependent there.
type ECOStats struct {
	EditedNets   int // nets added, removed, or with a changed definition
	TilesInvalid int // tile groups re-drained
	TilesReused  int // tile groups replayed from the snapshot
	NetsRerouted int // nets in re-drained groups
	NetsReused   int // nets restored from the snapshot
}

// netSnap freezes one net's post-drain deletion state plus the raw input
// pin list that produced it. The alive/frozen arrays are private clones;
// pinMask, spineDist and the other constructed fields are shared with the
// originating router, which never mutates them after construction.
type netSnap struct {
	ns   netState
	pins []geom.Point
}

func snapNet(ns *netState, pins []geom.Point) netSnap {
	s := netSnap{ns: *ns, pins: pins}
	s.ns.aliveH = cloneBools(ns.aliveH)
	s.ns.aliveV = cloneBools(ns.aliveV)
	s.ns.frozenH = cloneBools(ns.frozenH)
	s.ns.frozenV = cloneBools(ns.frozenV)
	return s
}

func cloneBools(b []bool) []bool {
	out := make([]bool, len(b))
	copy(out, b)
	return out
}

// restoreRouted returns the net's post-drain state, cloning the mutable
// arrays so a resume never writes into the snapshot (a DrainState may be
// resumed any number of times).
func (s *netSnap) restoreRouted() netState {
	ns := s.ns
	ns.aliveH = cloneBools(s.ns.aliveH)
	ns.aliveV = cloneBools(s.ns.aliveV)
	ns.frozenH = cloneBools(s.ns.frozenH)
	ns.frozenV = cloneBools(s.ns.frozenV)
	return ns
}

// restoreFresh returns the net's pre-drain state — alive everywhere,
// frozen nowhere — reusing the immutable constructed fields (pin mask,
// spine, RSMT estimate) instead of re-running makeNetState. The result is
// field-for-field what makeNetState produces for the unchanged net.
func (s *netSnap) restoreFresh() netState {
	ns := s.ns
	ns.aliveH = make([]bool, len(s.ns.aliveH))
	ns.aliveV = make([]bool, len(s.ns.aliveV))
	for i := range ns.aliveH {
		ns.aliveH[i] = true
	}
	for i := range ns.aliveV {
		ns.aliveV[i] = true
	}
	ns.frozenH = make([]bool, len(s.ns.frozenH))
	ns.frozenV = make([]bool, len(s.ns.frozenV))
	ns.nAlive = len(ns.aliveH) + len(ns.aliveV)
	return ns
}

// snapMatches reports whether net n is definitionally identical to the
// snapshot: same ID, same rate, and the same raw pin list (order and
// duplicates included — spine construction is order-sensitive).
func snapMatches(s *netSnap, n *Net) bool {
	if s.ns.id != n.ID || s.ns.rate != n.Rate || len(s.pins) != len(n.Pins) {
		return false
	}
	for i := range s.pins {
		if s.pins[i] != n.Pins[i] {
			return false
		}
	}
	return true
}

// tileSnap freezes one tile group's drain outcome: its members, window,
// and the private delta arrays its view accumulated. The arrays are
// adopted from the view (which is discarded after merging), never copied
// and never written again.
type tileSnap struct {
	tile    int   // tile index in the cfg.TileCols×cfg.TileRows grid
	members []int // net indices, input order
	win     geom.Rect

	dNnsH, dSumSH, dSumS2H []float64
	dNnsV, dSumSV, dSumS2V []float64
}

// DrainState is the resumable snapshot of a sharded run, captured after
// every group's drain has merged but before reconciliation. It is
// immutable: resumes clone what they mutate, so one snapshot serves any
// number of deltas. Callers treat it as opaque; internal/artifact stores
// it alongside the sealed Result.
type DrainState struct {
	cfg                Config // resolved router config the snapshot was produced under
	cols, rows         int    // grid dimensions
	tileCols, tileRows int    // resolved tiling

	snaps []netSnap
	tiles []tileSnap
}

// captureDrainState clones the per-net deletion state and adopts the
// per-group delta arrays. cfg must be the resolved ShardConfig of the run.
func (r *Router) captureDrainState(cfg ShardConfig, groups [][]int, tileIDs []int, views []*view) *DrainState {
	ds := &DrainState{
		cfg:  r.cfg,
		cols: r.g.Cols, rows: r.g.Rows,
		tileCols: cfg.TileCols, tileRows: cfg.TileRows,
		snaps: make([]netSnap, len(r.nets)),
		tiles: make([]tileSnap, len(groups)),
	}
	for i := range r.nets {
		ds.snaps[i] = snapNet(&r.nets[i], r.inPins[i])
	}
	for gi := range groups {
		v := views[gi]
		ds.tiles[gi] = tileSnap{
			tile: tileIDs[gi], members: groups[gi], win: v.win,
			dNnsH: v.dNnsH, dSumSH: v.dSumSH, dSumS2H: v.dSumS2H,
			dNnsV: v.dNnsV, dSumSV: v.dSumSV, dSumS2V: v.dSumS2V,
		}
	}
	return ds
}

// mergeSnap replays a clean group's captured deltas into the base arrays
// through the exact loop view.merge uses, so the float-addition order —
// and therefore every bit of the merged state — matches a live merge.
func (r *Router) mergeSnap(t *tileSnap) {
	wcols := t.win.Width()
	for y := t.win.MinY; y <= t.win.MaxY; y++ {
		for x := t.win.MinX; x <= t.win.MaxX; x++ {
			i, w := y*r.g.Cols+x, (y-t.win.MinY)*wcols+(x-t.win.MinX)
			r.nnsH[i] += t.dNnsH[w]
			r.sumSH[i] += t.dSumSH[w]
			r.sumS2H[i] += t.dSumS2H[w]
			r.nnsV[i] += t.dNnsV[w]
			r.sumSV[i] += t.dSumSV[w]
			r.sumS2V[i] += t.dSumS2V[w]
		}
	}
}

// RunShardedResume routes nets on g by resuming from prev, a DrainState
// captured by RunShardedState under the same grid, router config, and
// tiling. Only tile groups the edit invalidates are re-drained; everything
// else replays from the snapshot. The Result (trees, usage, stats) is
// byte-identical to a from-scratch RunSharded of the edited netlist at any
// worker count, and a fresh DrainState for the edited netlist is captured
// so ECO deltas chain.
func RunShardedResume(ctx context.Context, g *grid.Grid, cfg Config, nets []Net, pool Pool, scfg ShardConfig, prev *DrainState) (*Result, *DrainState, ECOStats, error) {
	var es ECOStats
	if g == nil {
		return nil, nil, es, fmt.Errorf("route: nil grid")
	}
	if prev == nil {
		return nil, nil, es, fmt.Errorf("route: nil drain state")
	}
	cfg = cfg.withDefaults()
	scfg = scfg.withDefaults(g.Cols, g.Rows)
	pool = orSerial(pool, scfg.Trace, scfg.Lane)
	if prev.cfg != cfg {
		return nil, nil, es, fmt.Errorf("route: drain state router config mismatch")
	}
	if prev.cols != g.Cols || prev.rows != g.Rows {
		return nil, nil, es, fmt.Errorf("route: drain state grid %dx%d, want %dx%d", prev.cols, prev.rows, g.Cols, g.Rows)
	}
	if prev.tileCols != scfg.TileCols || prev.tileRows != scfg.TileRows {
		return nil, nil, es, fmt.Errorf("route: drain state tiling %dx%d, want %dx%d", prev.tileCols, prev.tileRows, scfg.TileCols, scfg.TileRows)
	}
	if err := validateNets(g, nets); err != nil {
		return nil, nil, es, err
	}

	r := newRouter(g, cfg, len(nets))
	for i := range nets {
		r.inPins[i] = nets[i].Pins
	}

	// Invalidation: derive the edited net set by diffing against the
	// snapshot, accumulate the dirty rectangles (old and new bounding
	// boxes of every difference), and classify each tile group of the
	// edited netlist as clean or invalidated.
	isp := scfg.Trace.Start(scfg.Lane, "route", "eco invalidate").Arg("nets", int64(len(nets)))
	edited := make([]bool, len(nets))
	bboxes := make([]geom.Rect, len(nets))
	var dirtyRects []geom.Rect
	for i := range nets {
		if i < len(prev.snaps) && snapMatches(&prev.snaps[i], &nets[i]) {
			bboxes[i] = prev.snaps[i].ns.bbox
			continue
		}
		edited[i] = true
		es.EditedNets++
		bboxes[i] = geom.RectFromPoints(nets[i].Pins)
		dirtyRects = append(dirtyRects, bboxes[i])
		if i < len(prev.snaps) {
			dirtyRects = append(dirtyRects, prev.snaps[i].ns.bbox)
		}
	}
	for i := len(nets); i < len(prev.snaps); i++ {
		es.EditedNets++
		dirtyRects = append(dirtyRects, prev.snaps[i].ns.bbox)
	}

	groups, tileIDs := partitionRects(bboxes, scfg, g.Cols, g.Rows)
	prevTiles := make(map[int]*tileSnap, len(prev.tiles))
	for ti := range prev.tiles {
		prevTiles[prev.tiles[ti].tile] = &prev.tiles[ti]
	}

	stats := RunStats{Shards: len(groups), SeedChunks: r.seedChunks}
	dirty := make([]bool, len(groups))
	redrain := make([]bool, len(nets))
	wins := make([]geom.Rect, len(groups))
	for gi, members := range groups {
		if len(members) > stats.LargestShard {
			stats.LargestShard = len(members)
		}
		win := bboxes[members[0]]
		for _, ni := range members[1:] {
			win = unionRect(win, bboxes[ni])
		}
		wins[gi] = win
		d := false
		pt, ok := prevTiles[tileIDs[gi]]
		if !ok || len(pt.members) != len(members) {
			d = true
		} else {
			for mi, ni := range members {
				if pt.members[mi] != ni || edited[ni] {
					d = true
					break
				}
			}
		}
		if !d {
			for _, dr := range dirtyRects {
				if rectsOverlap(win, dr) {
					d = true
					break
				}
			}
		}
		dirty[gi] = d
		if d {
			es.TilesInvalid++
			es.NetsRerouted += len(members)
			for _, ni := range members {
				redrain[ni] = true
			}
		} else {
			es.TilesReused++
		}
	}
	es.NetsReused = len(nets) - es.NetsRerouted
	isp.Arg("invalid", int64(es.TilesInvalid)).Arg("reused", int64(es.TilesReused)).End()

	if err := ctx.Err(); err != nil {
		return nil, nil, es, err
	}

	// Per-net state: edited nets construct from scratch (chunked like
	// fresh seeding), unedited nets in invalidated groups restore their
	// pre-drain state, everything else restores post-drain.
	err := mapChunks(ctx, pool, "seed", len(nets), seedChunk, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			switch {
			case edited[i]:
				r.nets[i] = r.makeNetState(nets[i])
			case redrain[i]:
				r.nets[i] = prev.snaps[i].restoreFresh()
			default:
				r.nets[i] = prev.snaps[i].restoreRouted()
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, es, err
	}

	// Seeding replay: every net's expected-utilization bumps in ascending
	// order (the base arrays must match from-scratch bit for bit), with
	// heap pushes interleaved exactly where fresh seeding would compute
	// them — but only for nets that will actually re-drain.
	for i := range r.nets {
		r.bumpNet(i)
		if redrain[i] {
			r.pushNet(i)
		}
	}

	// Views and heaps for the invalidated groups only.
	views := make([]*view, 0, es.TilesInvalid)
	dirtyGIs := make([]int, 0, es.TilesInvalid)
	owner := make([]int32, len(r.nets))
	for gi, members := range groups {
		if !dirty[gi] {
			continue
		}
		v := newView(r, wins[gi])
		for _, ni := range members {
			owner[ni] = int32(len(views))
		}
		views = append(views, v)
		dirtyGIs = append(dirtyGIs, gi)
	}
	ssp := scfg.Trace.Start(scfg.Lane, "route", "heap split").Arg("shards", int64(len(views)))
	for _, it := range r.pq {
		v := views[owner[it.net]]
		v.pq = append(v.pq, it)
	}
	r.pq = nil
	for _, v := range views {
		heap.Init(&v.pq)
	}
	ssp.End()

	err = drainViews(ctx, pool, scfg.Trace, "shard", views, func(vi int) string {
		gi := dirtyGIs[vi]
		return fmt.Sprintf("eco shard %d (%d nets)", gi, len(groups[gi]))
	})
	if err != nil {
		return nil, nil, es, err
	}

	// Merge in group order — live views for invalidated groups, captured
	// deltas for clean ones — so every base-array addition lands in the
	// same order as from-scratch.
	msp := scfg.Trace.Start(scfg.Lane, "route", "delta merge").Arg("shards", int64(len(groups)))
	vi := 0
	for gi := range groups {
		if dirty[gi] {
			views[vi].merge()
			vi++
		} else {
			r.mergeSnap(prevTiles[tileIDs[gi]])
		}
	}
	msp.End()

	// Capture the edited netlist's own DrainState so deltas chain: clean
	// nets and tiles reuse the (immutable) previous snapshot entries.
	ds := &DrainState{
		cfg:  r.cfg,
		cols: g.Cols, rows: g.Rows,
		tileCols: scfg.TileCols, tileRows: scfg.TileRows,
		snaps: make([]netSnap, len(r.nets)),
		tiles: make([]tileSnap, len(groups)),
	}
	for i := range r.nets {
		if redrain[i] {
			ds.snaps[i] = snapNet(&r.nets[i], r.inPins[i])
		} else {
			ds.snaps[i] = prev.snaps[i]
		}
	}
	vi = 0
	for gi := range groups {
		if dirty[gi] {
			v := views[vi]
			vi++
			ds.tiles[gi] = tileSnap{
				tile: tileIDs[gi], members: groups[gi], win: v.win,
				dNnsH: v.dNnsH, dSumSH: v.dSumSH, dSumS2H: v.dSumS2H,
				dNnsV: v.dNnsV, dSumSV: v.dSumSV, dSumS2V: v.dSumS2V,
			}
		} else {
			ds.tiles[gi] = *prevTiles[tileIDs[gi]]
		}
	}

	res, err := r.finishSharded(ctx, pool, scfg, &stats)
	if err != nil {
		return nil, nil, es, err
	}
	return res, ds, es, nil
}
