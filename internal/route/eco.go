package route

import (
	"context"
	"fmt"
	"slices"

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
//   - The resume seeds through the same Router.seed as a fresh router:
//     bumps are replayed for EVERY net in ascending order, so the base
//     utilization after seeding is bit-identical to a from-scratch run on
//     the edited netlist. Heap keys are pushed only for nets in
//     invalidated groups, at the same point of the replay as from-scratch
//     seeding computes them; a key reads base state only inside its net's
//     bounding box, so the values match bit for bit.
//   - A group is CLEAN only when its member list (and every member's
//     definition) is unchanged AND its window is disjoint from every
//     dirty rectangle — the old and new bounding boxes of every edited,
//     added, or removed net. A clean group's drain reads base state only
//     inside its window, where no edit left a trace, so its drain in the
//     edited run would reproduce the captured one exactly: the snapshot's
//     per-net deletion flags and per-window delta arrays stand in for
//     re-execution.
//   - The same tile driver (drainTiles) merges ALL groups in group order —
//     invalidated groups their freshly drained windows, clean groups their
//     captured ones, both through window.merge — so the float-addition
//     order into the base matches from-scratch exactly.
//   - The same builder (drainState) captures the edited netlist's
//     snapshot, and reconciliation and extraction run on bit-identical
//     global state via the shared finishSharded tail.
//
// The edit set is derived, not declared: resume diffs the given nets
// against the snapshot's raw pin lists, so a caller cannot under-report
// an edit and corrupt the result.

// ECOStats reports how much work an ECO resume avoided. Every field is a
// pure function of (snapshot, edited netlist) — never of the pool
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

// clone copies ns with private copies of the arrays deletion mutates.
func (ns *netState) clone() netState {
	c := *ns
	c.aliveH = slices.Clone(ns.aliveH)
	c.aliveV = slices.Clone(ns.aliveV)
	c.frozenH = slices.Clone(ns.frozenH)
	c.frozenV = slices.Clone(ns.frozenV)
	return c
}

// restoreFresh returns the net's pre-drain state — alive everywhere,
// frozen nowhere — reusing the immutable constructed fields (pin mask,
// spine, RSMT estimate) instead of re-running makeNetState. The result is
// field-for-field what makeNetState produces for the unchanged net.
func (s *netSnap) restoreFresh() netState {
	ns := s.ns.clone()
	ns.resetEdges()
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

// tileSnap freezes one tile group's drain outcome: its members and the
// delta window its view accumulated. The window is adopted from the view
// (which is discarded after merging), never copied and never written
// again.
type tileSnap struct {
	tile    int   // tile index in the grid's tiling, row-major
	members []int // net indices, input order
	window
}

// DrainState is the resumable snapshot of a sharded run, captured after
// every group's drain has merged but before reconciliation. It is
// immutable: resumes clone what they mutate, so one snapshot serves any
// number of deltas. Callers treat it as opaque; internal/artifact stores
// it alongside the sealed Result.
type DrainState struct {
	cfg  Config    // resolved router config the snapshot was produced under
	grid grid.Grid // the grid it was routed on, which fixes the tiling

	snaps []netSnap
	tiles []tileSnap
}

// tileClean reports whether a group of the edited netlist can replay pt,
// its tile's capture, instead of re-draining: the tile held exactly these
// members, none of them changed, and the group's window meets no dirty
// rectangle.
func tileClean(pt *tileSnap, members []int, win geom.Rect, edited []bool, dirty []geom.Rect) bool {
	if pt == nil || !slices.Equal(pt.members, members) {
		return false
	}
	for _, ni := range members {
		if edited[ni] {
			return false
		}
	}
	for _, d := range dirty {
		if win.Intersects(d) {
			return false
		}
	}
	return true
}

// RunShardedResume routes nets on g by resuming from prev, a DrainState
// captured by RunShardedState under the same grid and router config. Only
// tile groups the edit invalidates are re-drained; everything else
// replays from the snapshot. The Result (trees and stats) is
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
	pool = orSerial(pool, scfg.Trace, scfg.Lane)
	if prev.cfg != cfg {
		return nil, nil, es, fmt.Errorf("route: drain state router config mismatch")
	}
	if prev.grid != *g {
		return nil, nil, es, fmt.Errorf("route: drain state grid %+v, want %+v", prev.grid, *g)
	}
	if err := validateNets(g, nets); err != nil {
		return nil, nil, es, err
	}
	r := newRouter(g, cfg, nets)

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

	groups, tileIDs, wins := partitionRects(bboxes, g.Cols, g.Rows)
	prevTiles := make(map[int]*tileSnap, len(prev.tiles))
	for ti := range prev.tiles {
		prevTiles[prev.tiles[ti].tile] = &prev.tiles[ti]
	}
	clean := make([]*tileSnap, len(groups))
	redrain := make([]bool, len(nets))
	for gi, members := range groups {
		if pt := prevTiles[tileIDs[gi]]; tileClean(pt, members, wins[gi], edited, dirtyRects) {
			clean[gi] = pt
			es.TilesReused++
			continue
		}
		es.TilesInvalid++
		es.NetsRerouted += len(members)
		for _, ni := range members {
			redrain[ni] = true
		}
	}
	es.NetsReused = len(nets) - es.NetsRerouted
	isp.Arg("invalid", int64(es.TilesInvalid)).Arg("reused", int64(es.TilesReused)).End()

	if err := ctx.Err(); err != nil {
		return nil, nil, es, err
	}

	// Per-net state: edited nets construct from scratch, unedited nets in
	// invalidated groups restore their pre-drain state, everything else
	// restores post-drain — a clone, so a resume never writes into the
	// snapshot (a DrainState may be resumed any number of times). Only
	// re-draining nets are seeded.
	err := r.seed(ctx, pool, func(i int, sc *seedScratch) netState {
		switch {
		case edited[i]:
			return r.makeNetState(nets[i], sc)
		case redrain[i]:
			return prev.snaps[i].restoreFresh()
		}
		return prev.snaps[i].ns.clone()
	}, redrain)
	if err != nil {
		return nil, nil, es, err
	}
	tiles, err := r.drainTiles(ctx, pool, scfg, groups, tileIDs, wins, clean)
	if err != nil {
		return nil, nil, es, err
	}
	ds := r.drainState(tiles, prev, redrain)
	res, err := r.finishSharded(ctx, pool, scfg, groups)
	if err != nil {
		return nil, nil, es, err
	}
	return res, ds, es, nil
}
