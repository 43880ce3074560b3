package core

import (
	"context"

	"repro/internal/engine"
	"repro/internal/sino"
)

// refineStats reports Phase III activity: the two legacy counters plus
// the embedded wave/relax decomposition that flows.go copies wholesale
// into Outcome.Refine.
type refineStats struct {
	resolves  int // SINO re-runs across both passes
	unfixable int // violating nets that could not be repaired

	RefineStats
}

// refine is Phase III (Figure 2): two passes of greedy local refinement.
//
// Pass 1 eliminates crosstalk violations: for each wave, take the maximal
// independent set of the most severely violating nets (nets conflict iff
// they share a region instance — see conflict.go) and repair every net in
// it concurrently; inside a net, tighten its segment's Kth in the least
// congested region it crosses (allowing one more shield's worth of
// isolation) and re-run SINO there, until the net meets its budget. Pass 2
// reduces congestion: the most congested instances are speculatively
// re-solved in parallel with the slack of their nets granted as looser
// bounds, then accepted serially in density order; a relaxation is kept
// only when it removes shields without creating any violation.
//
// Both passes run on the engine's worker pool. The wave schedule, the
// per-net repair loops, and the serial acceptance order are all pure
// functions of the chip state, so the outcome is byte-identical at any
// worker count (DESIGN.md §7); the serial reference is the same pool at
// one worker.
//
// Between-wave bookkeeping is incremental (DESIGN.md §10): a violation
// tracker maintains per-net LSK and the violating set across barriers,
// refreshing only the nets incident to touched instances, and each wave's
// conflict graph is read off the tracker in one scan. Both are
// bit-identical to the from-scratch recomputation (the oracle tests pin
// this).
func (st *chipState) refine(ctx context.Context) (refineStats, error) {
	var stats refineStats
	tr := st.newViolTracker()
	if err := st.refinePass1(ctx, tr, make([]bool, len(st.terms)), &stats); err != nil {
		return stats, err
	}
	if err := st.refinePass2(ctx, tr, &stats); err != nil {
		return stats, err
	}
	stats.Refreshed = tr.refreshes
	return stats, nil
}

// density returns an instance's track demand over capacity.
func (st *chipState) density(in *regionInst) float64 {
	tracks := len(in.Segs)
	if in.sol != nil {
		tracks = in.sol.NumTracks()
	}
	if in.key.horz {
		return float64(tracks) / float64(st.r.design.Grid.HC)
	}
	return float64(tracks) / float64(st.r.design.Grid.VC)
}

// refineShrink is Phase III pass 1's multiplicative Kth reduction per
// added shield allowance.
const refineShrink = 0.7

// repairNet runs one violating net's tighten-and-resolve loop to
// completion on w: repeatedly pull the segment bound in the net's least
// congested tightenable region toward its fair share of the needed
// reduction (the fixed shrink factor alone converges too slowly for nets
// crossing dozens of regions) and repair that instance by shield
// insertion. It reports whether the net met its budget, how many re-solves
// ran, and the distinct instances it re-solved — the exact mutation set
// the barrier's violation tracker must refresh (touching the net's whole
// footprint would be correct but dirties every co-resident net; on dense
// fixtures that costs more than the full resweep it replaces). The loop
// reads and mutates only the net's own instances, so nets with disjoint
// instance sets repair concurrently without observing each other; touched
// is task-private until the barrier.
func (st *chipState) repairNet(ctx context.Context, net int, w *engine.Worker) (fixed bool, resolves int, touched []*regionInst, err error) {
	kFloor := st.r.budgeter.Clamp(0)

	// Per term of the net (one per instance it crosses): the repairs that
	// failed to lower its segment's K, and whether touched lists it.
	terms := st.terms[net]
	tried := make([]uint8, len(terms))
	seen := make([]bool, len(terms))
	for inner := 0; inner < 3*len(terms)+8; inner++ {
		if err := ctx.Err(); err != nil {
			return false, resolves, touched, err // cancellation stops mid-net, not mid-solve
		}
		lsk := st.lskOf(net)
		if lsk <= st.lskb[net]*(1+1e-9) {
			return true, resolves, touched, nil
		}
		ratio := st.lskb[net] / lsk * refineShrink
		ti := st.leastCongestedTightenable(net, kFloor, tried)
		if ti < 0 {
			break // every segment at the floor or exhausted
		}
		in, seg := terms[ti].inst, terms[ti].seg
		target := in.k[seg] * ratio
		if cur := in.Segs[seg].Kth; target >= cur {
			target = cur * refineShrink
		}
		if target < kFloor {
			target = kFloor
		}
		before := in.k[seg]
		in.Segs[seg].Kth = target
		res := w.Do(st.job(in, engine.ModeRepair))
		if res.Err != nil {
			return false, resolves, touched, res.Err
		}
		in.apply(res)
		resolves++
		if !seen[ti] {
			seen[ti] = true
			touched = append(touched, in)
		}
		if in.k[seg] >= before*(1-1e-9) {
			// The solver could not reduce this segment further; stop
			// revisiting it once it has had a couple of chances.
			tried[ti]++
		}
	}
	return false, resolves, touched, nil
}

// leastCongestedTightenable returns the position, in the net's terms, of
// its segment in the least congested region whose bound is still above
// the floor, skipping terms that have repeatedly failed to improve (tried,
// by term); -1 when there is none.
func (st *chipState) leastCongestedTightenable(net int, kFloor float64, tried []uint8) int {
	best := -1
	bestDen := 0.0
	for i, t := range st.terms[net] {
		if t.inst.Segs[t.seg].Kth <= kFloor*(1+1e-9) || tried[i] >= 2 {
			continue
		}
		den := st.density(t.inst)
		if best < 0 || den < bestDen {
			best, bestDen = i, den
		}
	}
	return best
}

// relaxPlan is one pass-2 candidate's speculative result: the loosened
// bounds and the solution found under them, computed against a snapshot of
// the chip state without mutating it.
type relaxPlan struct {
	in      *regionInst
	changed bool // some segment actually gained slack
	kth     []float64
	sol     *sino.Solution
	k       []float64
}

// speculateRelax grants every segment of the instance its net's LSK slack
// (converted to a K allowance over its local length) and re-solves under
// the loosened bounds, touching nothing outside the returned plan. Slack
// is read from the violation tracker's maintained LSK values — bit-equal
// to a live lskOf recompute and O(1) per segment — which the speculation
// wave treats as an immutable snapshot.
func (st *chipState) speculateRelax(tr *violTracker, in *regionInst, w *engine.Worker) (relaxPlan, error) {
	p := relaxPlan{in: in}
	kth := make([]float64, len(in.Segs))
	for i := range in.Segs {
		kth[i] = in.Segs[i].Kth
	}
	changed := false
	for i := range in.Segs {
		net := in.Segs[i].Net
		slack := st.lskb[net] - tr.lsk[net]
		if slack <= 0 || in.lens[i] <= 0 {
			continue
		}
		allow := 0.9 * slack / float64(in.lens[i])
		if allow <= 0 {
			continue
		}
		kth[i] += allow
		changed = true
	}
	if !changed {
		return p, nil
	}
	inst := in.Instance
	inst.Segs = append([]sino.Seg(nil), in.Segs...)
	for i := range inst.Segs {
		inst.Segs[i].Kth = kth[i]
	}
	res := w.Do(engine.Job{Inst: &inst, Mode: engine.ModeSolve})
	if res.Err != nil {
		return p, res.Err
	}
	p.changed, p.kth, p.sol, p.k = true, kth, res.Sol, res.K
	return p, nil
}

// acceptOrRevert applies one speculative relaxation and keeps it only if
// shields were removed and no net anywhere fell into violation — Figure
// 2's acceptance rule. A plan speculated against slack that an earlier
// acceptance has since consumed fails the violation check here and is
// reverted, restoring the instance's bounds, solution, and couplings
// exactly. The violation check is incremental: only the relaxed
// instance's own nets can have moved, so touching that one instance and
// flushing the tracker reproduces the old full violating() sweep bit for
// bit — and when shields were not reduced the plan is reverted without
// consulting the tracker at all, preserving the original short-circuit
// (the revert restores the exact state the tracker already describes).
// Reports whether the plan was kept.
func (st *chipState) acceptOrRevert(tr *violTracker, p *relaxPlan) bool {
	in := p.in
	oldKth := make([]float64, len(in.Segs))
	for i := range in.Segs {
		oldKth[i] = in.Segs[i].Kth
	}
	oldSol, oldK := in.sol, in.k

	for i := range in.Segs {
		in.Segs[i].Kth = p.kth[i]
	}
	in.sol, in.k = p.sol, p.k
	if in.sol.NumShields() < oldSol.NumShields() {
		tr.touchInst(in)
		tr.flush()
		if tr.count() == 0 {
			return true // accepted
		}
		// Revert, and re-flush so the tracker tracks the restored state.
		for i := range in.Segs {
			in.Segs[i].Kth = oldKth[i]
		}
		in.sol, in.k = oldSol, oldK
		tr.touchInst(in)
		tr.flush()
		return false
	}
	// Shields not reduced: revert without touching the tracker — the
	// restored state is byte-identical to what the tracker last flushed.
	for i := range in.Segs {
		in.Segs[i].Kth = oldKth[i]
	}
	in.sol, in.k = oldSol, oldK
	return false
}
