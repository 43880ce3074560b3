package sino

import (
	"fmt"
	"sort"

	"repro/internal/keff"
)

// Solve runs the production SINO heuristic: greedy ordering that keeps
// sensitive segments apart, shield insertion until the inductive bounds
// hold, then a shield-removal polish pass toward minimum area. The returned
// Check is the verification of the returned solution; callers must consult
// Check.Feasible — an instance whose bounds are tighter than dense shielding
// can achieve yields the best solution found with its violations reported.
func Solve(in *Instance) (*Solution, *Check) {
	return SolveWith(NewEval(), in)
}

// SolveWith is Solve running on a caller-supplied evaluator, whose buffers
// it reuses — the form solver pools use (the engine keeps one evaluator per
// worker). The evaluator is left bound to in.
func SolveWith(e *Eval, in *Instance) (*Solution, *Check) {
	if err := in.Validate(); err != nil {
		panic(err.Error())
	}
	e.Bind(in)
	s := in.construct(true, e.rel)
	if err := e.Load(s); err != nil {
		panic(err.Error()) // unreachable: construct places every segment once
	}
	e.repairK()
	e.polish()
	e.store(s)
	return s, e.Check()
}

// NetOrderOnly runs the NO baseline: pure net ordering, no shields, greedily
// minimizing adjacent sensitive pairs ("followed by net ordering within each
// region to eliminate as much capacitive coupling as possible", paper §4).
// Inductive bounds are not enforced — that is the point of the baseline.
func NetOrderOnly(in *Instance) (*Solution, *Check) {
	if err := in.Validate(); err != nil {
		panic(err.Error())
	}
	rel := in.relation()
	s := in.construct(false, rel)
	improveOrdering(s, rel)
	return s, in.verify(s, rel)
}

// construct builds an initial sequence. Segments are taken in decreasing
// conflict-degree order; at each step the highest-degree segment not
// sensitive to the last placed one is appended. When every remaining
// segment conflicts, a shield is appended (withShields) or the
// least-conflicting segment is accepted (ordering-only). rel is the
// instance's relation; a segment's conflict degree is its row's popcount.
func (in *Instance) construct(withShields bool, rel *keff.Relation) *Solution {
	n := len(in.Segs)
	deg := make([]int, n)
	order := make([]int, n)
	for i := range order {
		deg[i] = rel.Degree(i)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := deg[order[a]], deg[order[b]]
		if da != db {
			return da > db
		}
		// Tie-break: tighter bound first, so constrained segments get
		// favorable (edge) positions.
		return in.Segs[order[a]].Kth < in.Segs[order[b]].Kth
	})

	placed := make([]bool, n)
	tracks := make([]int, 0, n)
	last := Shield // nothing yet; shields clear adjacency
	for count := 0; count < n; {
		pick := -1
		for _, cand := range order {
			if placed[cand] {
				continue
			}
			if last == Shield || !rel.Has(last, cand) {
				pick = cand
				break
			}
		}
		if pick < 0 {
			if withShields {
				tracks = append(tracks, Shield)
				last = Shield
				continue
			}
			// Ordering-only: accept the least-conflicting remaining segment.
			best, bestDeg := -1, int(^uint(0)>>1)
			for _, cand := range order {
				if !placed[cand] {
					if deg[cand] < bestDeg {
						best, bestDeg = cand, deg[cand]
					}
				}
			}
			pick = best
		}
		tracks = append(tracks, pick)
		placed[pick] = true
		last = pick
		count++
	}
	return &Solution{Tracks: tracks}
}

// repairK inserts shields until every segment meets its inductive bound or
// no further progress is possible. Each round targets the worst violator
// and shields its heavier-coupled side; the evaluator keeps the coupling
// totals current, so a round costs one windowed update instead of a
// from-scratch recount. When a bound is tighter than dense shielding can
// reach, the worst violator's coupling stagnates; the loop detects that —
// or the violator already boxed in by shields — and stops instead of
// burning the shield budget.
func (e *Eval) repairK() {
	in := e.in
	maxShields := 2*len(in.Segs) + 2
	stagnant := 0
	lastWorst := -1
	lastK := 0.0
	for iter := 0; ; iter++ {
		worst, worstOver := -1, 0.0
		for i := range in.Segs {
			if over := (e.k[i] - in.Segs[i].Kth) / in.Segs[i].Kth; over > worstOver {
				worst, worstOver = i, over
			}
		}
		if worst < 0 || e.nShields >= maxShields || iter > 4*len(in.Segs) {
			return
		}
		if worst == lastWorst && e.k[worst] > lastK*0.99 {
			stagnant++
			if stagnant >= 3 {
				return // insertions no longer help this segment
			}
		} else {
			stagnant = 0
		}
		lastWorst, lastK = worst, e.k[worst]

		pos := e.pos[worst]
		left, right := e.sidePull(pos)
		at := pos // insert left of pos
		if right > left {
			at = pos + 1
		}
		// A shield directly beside the violator adds nothing on that side:
		// flip a useless insertion to the other side, and stop when both
		// neighbors are already shields — no insertion can lower this
		// segment's coupling further.
		leftShielded := pos > 0 && e.tracks[pos-1] == Shield
		rightShielded := pos+1 < len(e.tracks) && e.tracks[pos+1] == Shield
		if leftShielded && rightShielded {
			return // boxed in by shields already
		}
		if at == pos && leftShielded {
			at = pos + 1
		} else if at == pos+1 && rightShielded {
			at = pos
		}
		e.InsertShield(at)
	}
}

// Repair improves an existing solution in place toward feasibility by
// shield insertion only, without reordering or polish — the cheap re-solve
// used by Phase III refinement, where bounds change a little at a time and
// the existing ordering is worth keeping. A structurally invalid solution
// is returned unrepaired with its verify report — there is no meaningful
// repair for a broken track assignment.
func Repair(in *Instance, s *Solution) *Check {
	c := in.verify(s, nil)
	if c.Structural != nil {
		return c
	}
	return RepairWith(NewEval(), in, s, c.K)
}

// RepairWith is Repair on a caller-supplied evaluator (see SolveWith),
// given k, s's per-segment totals: the Check.K of the solve or repair
// that produced s. Totals do not depend on the bounds, so a check taken
// under other Kth values serves, and the load skips its totals pass.
func RepairWith(e *Eval, in *Instance, s *Solution, k []float64) *Check {
	if err := in.Validate(); err != nil {
		panic(err.Error())
	}
	if len(k) != len(in.Segs) {
		panic(fmt.Sprintf("sino: repair given %d totals for %d segments", len(k), len(in.Segs)))
	}
	e.Bind(in)
	if err := e.load(s, k); err != nil {
		return in.verify(s, e.rel)
	}
	e.repairK()
	e.store(s)
	return e.Check()
}

// polish removes shields that are no longer needed. Each removal probe
// (tryRemoveShield) stops at the first violation it finds, and most
// probes find one: the shield turns out to be load-bearing. Passes are
// bounded because the first catches almost every removable shield.
func (e *Eval) polish() {
	if !e.Feasible() {
		return // keep every shield while infeasible
	}
	for pass := 0; pass < 2; pass++ {
		removed := false
		for t := len(e.tracks) - 1; t >= 0; t-- {
			if e.tracks[t] == Shield && e.tryRemoveShield(t) {
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}

// capPairCount counts adjacent sensitive pairs in O(n), the NO objective.
func capPairCount(s *Solution, rel *keff.Relation) int {
	n := 0
	prev := Shield
	for _, seg := range s.Tracks {
		if seg == Shield {
			prev = Shield
			continue
		}
		if prev != Shield && rel.Has(prev, seg) {
			n++
		}
		prev = seg
	}
	return n
}

// improveOrdering hill-climbs adjacent swaps to reduce the number of
// adjacent sensitive pairs (the NO objective). A swap only affects the two
// adjacencies beside the pair, so each probe is the O(1) capSwapDelta
// instead of an O(n) recount; accepted swaps are exactly those the
// recounting climber accepted (delta < 0 ⇔ new count < current).
func improveOrdering(s *Solution, rel *keff.Relation) {
	current := capPairCount(s, rel)
	for pass := 0; pass < 4 && current > 0; pass++ {
		improved := false
		for t := 0; t+1 < len(s.Tracks); t++ {
			if d := capSwapDelta(s.Tracks, t, rel); d < 0 {
				s.Tracks[t], s.Tracks[t+1] = s.Tracks[t+1], s.Tracks[t]
				current += d
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}
