package sino

import (
	"fmt"

	"repro/internal/keff"
)

// This file implements the incremental SINO evaluator: a stateful view of
// one solution under one instance that keeps every quantity the solver's
// inner loops consult — per-segment coupling totals, the adjacent-
// sensitive-pair count, shield count, a segment→track position index —
// up to date under single-track edits.
//
// The point is asymptotic: keff pair couplings are summed only within
// the 48-track pair cutoff, and an edit at track t perturbs totals only inside
// Model.AffectedRange around t (see its window argument), so a shield
// insertion or removal, a swap or a relocation costs O(window·cutoff)
// pair evaluations instead of the O(n²) from-scratch verify the solver
// previously ran per probe. Bit-identity is the contract that makes the
// rewiring safe: after every operation, segment i's total equals the i-th
// entry of a fresh Instance.TotalK of the current solution exactly (same
// pair values, same accumulation order — Model.TrackTotal documents
// why), so every comparison the greedy solver, polish pass, and annealer
// make is unchanged, and so are their outputs. Instance.verify stays as
// the independent brute-force oracle; TestEvalMatchesVerifyOnEditScripts
// replays random edit scripts against it.

// Eval is an incremental evaluator of SINO solutions. Callers create one
// and hand it to the solvers, which bind an instance, load a solution and
// apply single-track edits to it: shield insertions and removals, swaps
// and relocations.
//
//	e := sino.NewEval()
//	sol, chk := sino.SolveWith(e, in)
//	err := sino.RepairWith(e, tighter, sol, chk.K) // sol and chk.K repaired in place
//
// An Eval is reusable across instances (Bind resets it) and is designed to
// be pooled one per solver worker: its buffers persist across solves. It
// is not safe for concurrent use.
type Eval struct {
	in  *Instance
	rel *keff.Relation // pairwise sensitivity by segment index; never written

	tracks  []int     // current track stack: segment index or Shield
	shields [][2]int  // per-position nearest return conductors
	pos     []int     // segment index -> track position
	k       []float64 // per-segment coupling totals, bit-equal to TotalK
	kt      []float64 // scratch: per-track totals for full recomputes
	mates   []int     // scratch: sidePull's selected partners, one per segment

	// rows is the kept selection of the stack's sensitive pairs and their
	// values, which full-layout passes select and shield insertions keep;
	// kept reports that it describes the current stack.
	rows keff.PartnerRows
	kept bool

	build buildScratch // a solve's construction, which the solve then loads

	capPairs int // adjacent sensitive pairs (capacitive violations)
	nShields int
	nOver    int // segments with k > Kth

	// One-level undo: mark copies the authoritative state (tracks, totals,
	// counters); rollback restores it and rebuilds the derived arrays.
	mTracks               []int
	mK                    []float64
	mCap, mShields, mOver int

	stats EvalStats
}

// EvalStats counts an evaluator's cumulative activity — the evaluator-pool
// observability counters core.Outcome records per flow. The counts are a
// pure function of the solve schedule (every op the solvers issue is
// deterministic per instance), so summed over an engine's worker pool they
// are invariant under the worker count, like every other surfaced counter.
type EvalStats struct {
	Binds     uint64 // instances attached (Bind)
	Loads     uint64 // solution loads — an O(n·cutoff) rebuild, or O(n) from held totals
	Edits     uint64 // incremental ops: inserts, removes, swaps (O(window) each)
	Rollbacks uint64 // one-level undo restores (O(n) integer rebuild)

	// The full-layout passes' pair values: evaluated by the kernel, and
	// carried over a shield insertion from the kept rows.
	PairsComputed uint64
	PairsCarried  uint64
}

// Add returns the fieldwise sum.
func (s EvalStats) Add(o EvalStats) EvalStats {
	return EvalStats{
		Binds: s.Binds + o.Binds, Loads: s.Loads + o.Loads,
		Edits: s.Edits + o.Edits, Rollbacks: s.Rollbacks + o.Rollbacks,
		PairsComputed: s.PairsComputed + o.PairsComputed, PairsCarried: s.PairsCarried + o.PairsCarried,
	}
}

// Sub returns the counters accumulated since an earlier snapshot.
func (s EvalStats) Sub(o EvalStats) EvalStats {
	return EvalStats{
		Binds: s.Binds - o.Binds, Loads: s.Loads - o.Loads,
		Edits: s.Edits - o.Edits, Rollbacks: s.Rollbacks - o.Rollbacks,
		PairsComputed: s.PairsComputed - o.PairsComputed, PairsCarried: s.PairsCarried - o.PairsCarried,
	}
}

// Stats returns the evaluator's cumulative counters (they survive Bind:
// a pooled evaluator's stats span every instance it served).
func (e *Eval) Stats() EvalStats { return e.stats }

// NewEval returns an empty evaluator; Bind attaches it to an instance.
func NewEval() *Eval { return &Eval{} }

// Bind attaches the evaluator to an instance and its sensitivity relation
// (consulted thousands of times per solve on the same pairs): it points
// at Instance.Rel when the caller took the snapshot already, and
// snapshots a fresh relation otherwise (Relation returns it). The
// evaluator only reads the relation.
func (e *Eval) Bind(in *Instance) {
	e.in = in
	e.stats.Binds++
	e.rel = in.relation()
	e.tracks = e.tracks[:0]
	e.kept = false
	e.capPairs, e.nShields, e.nOver = 0, 0, 0
}

// Reserve sizes the evaluator's buffers for instances of up to n
// segments, between solves: those indexed by segment hold n, and those
// indexed by track, which shields lengthen, 2n. A worker that reserves
// once for the largest instance of a batch allocates each buffer once,
// where growing with each new largest instance would allocate it again
// and again. The buffers sized by a stack's pairs still grow as they
// need. Every solve binds and loads its instance afterwards, as always.
func (e *Eval) Reserve(n int) {
	e.kept = false
	b := &e.build
	e.pos, e.k, e.mates = grow(e.pos, n), grow(e.k, n), grow(e.mates, n)
	b.deg, b.order, b.placed = grow(b.deg, n), grow(b.order, n), grow(b.placed, n)
	e.tracks, b.tracks = grow(e.tracks, 2*n)[:0], grow(b.tracks, 2*n)[:0]
	e.shields, e.kt = grow(e.shields, 2*n), grow(e.kt, 2*n)
	e.rows.Reserve(n)
}

// Relation returns the sensitivity relation of the bound instance: its
// Rel, or the snapshot Bind took. The evaluator never reuses its storage,
// so a caller may keep it for later solves of the same segments.
func (e *Eval) Relation() *keff.Relation { return e.rel }

// load resets the evaluator to the track stack tracks, rebuilding every
// maintained quantity: its per-segment totals are taken from k when
// non-nil (see RepairWith) and summed otherwise, by a full pass that
// selects the kept rows, and the over-bound count is recounted against
// the bound instance's bounds either way. It reports structural problems
// (missing, duplicated, or unknown segments); on error the evaluator must
// be loaded again before use.
func (e *Eval) load(tracks []int, k []float64) error {
	n := len(e.in.Segs)
	e.stats.Loads++
	e.kept = false
	e.tracks = append(e.tracks[:0], tracks...)
	e.pos = grow(e.pos, n)
	for i := range e.pos {
		e.pos[i] = -1
	}
	e.nShields = 0
	for t, v := range e.tracks {
		if v == Shield {
			e.nShields++
			continue
		}
		if v < 0 || v >= n {
			return fmt.Errorf("sino: track holds unknown segment %d", v)
		}
		if e.pos[v] >= 0 {
			return fmt.Errorf("sino: segment %d appears twice", v)
		}
		e.pos[v] = t
	}
	for i, p := range e.pos {
		if p < 0 {
			return fmt.Errorf("sino: segment %d missing from solution", i)
		}
	}
	e.shields = e.in.Model.ShieldTableInto(e.tracks, e.shields)
	e.capPairs = capPairCount(e.tracks, e.rel)
	e.mates = grow(e.mates, n)

	e.k = grow(e.k, n)
	if k != nil {
		copy(e.k, k)
	} else {
		e.selectTotals()
		for t, v := range e.tracks {
			if v != Shield {
				e.k[v] = e.kt[t]
			}
		}
	}
	e.nOver = 0
	for i, ki := range e.k {
		if ki > e.in.Segs[i].Kth {
			e.nOver++
		}
	}
	return nil
}

// InsertShield inserts a shield track at position at ∈ [0, len(tracks)].
func (e *Eval) InsertShield(at int) { e.insertAt(at, Shield) }

// Feasible reports whether the current solution satisfies all SINO
// constraints, equal to Instance.verify(...).Feasible() on it.
func (e *Eval) Feasible() bool { return e.capPairs == 0 && e.nOver == 0 }

// Solution returns a copy of the current solution.
func (e *Eval) Solution() *Solution {
	return &Solution{Tracks: append([]int(nil), e.tracks...)}
}

// Check builds the verification report of the current solution, equal
// field by field to Instance.verify on it — including the exact K bits —
// without the from-scratch pair summation.
func (e *Eval) Check() *Check {
	c := &Check{WorstSeg: -1, K: make([]float64, len(e.k))}
	copy(c.K, e.k)
	prev := -1
	for t, v := range e.tracks {
		if v == Shield {
			prev = -1
			continue
		}
		if prev >= 0 && e.rel.Has(e.tracks[prev], v) {
			c.CapPairs = append(c.CapPairs, [2]int{prev, t})
		}
		prev = t
	}
	for i, k := range c.K {
		kth := e.in.Segs[i].Kth
		if k > kth {
			c.Over = append(c.Over, i)
			if over := (k - kth) / kth; over > c.WorstOver {
				c.WorstOver = over
				c.WorstSeg = i
			}
		}
	}
	return c
}

// store writes the current track assignment back into s.
func (e *Eval) store(s *Solution) { s.Tracks = append(s.Tracks[:0], e.tracks...) }

// mark snapshots the authoritative state for a one-level rollback.
func (e *Eval) mark() {
	e.mTracks = append(e.mTracks[:0], e.tracks...)
	e.mK = append(e.mK[:0], e.k...)
	e.mCap, e.mShields, e.mOver = e.capPairs, e.nShields, e.nOver
}

// rollback restores the last mark. Totals and counters restore by copy —
// no couplings are re-evaluated — and the derived arrays (position index,
// shield table) rebuild in O(n) integer work.
func (e *Eval) rollback() {
	e.stats.Rollbacks++
	e.kept = false
	e.tracks = append(e.tracks[:0], e.mTracks...)
	e.k = append(e.k[:0], e.mK...)
	e.capPairs, e.nShields, e.nOver = e.mCap, e.mShields, e.mOver
	for t, v := range e.tracks {
		if v != Shield {
			e.pos[v] = t
		}
	}
	e.shields = e.in.Model.ShieldTableInto(e.tracks, e.shields)
}

// insertAt inserts track value v (segment index or Shield) at position
// at. Only the adjacencies beside at change, so the capacitive count
// moves by capAround; a shield keeps the kept rows, a segment does not.
func (e *Eval) insertAt(at, v int) {
	e.stats.Edits++
	e.splice(at, v)
	e.capPairs += e.capAround(at)
	shieldAt := -1
	if v == Shield {
		e.nShields++
		shieldAt = at
	}
	lo, hi := e.in.Model.AffectedRange(len(e.tracks), at)
	e.recompute(lo, hi, shieldAt)
}

// removeAt removes the track at position at and returns its value.
func (e *Eval) removeAt(at int) int {
	e.stats.Edits++
	e.capPairs -= e.capAround(at)
	v := e.cut(at)
	if v == Shield {
		e.nShields--
	} else {
		e.pos[v] = -1
	}
	lo, hi := e.in.Model.AffectedRange(len(e.tracks), at)
	e.recompute(lo, hi, -1)
	return v
}

// capAround returns the adjacent sensitive pairs the track at position at
// forms with its neighbours, less the pair those neighbours would form
// without it: what inserting it added to the capacitive count, and what
// removing it takes away. A shield forms none, so it only takes away the
// adjacency it splits.
func (e *Eval) capAround(at int) int {
	p, q := Shield, Shield
	if at > 0 {
		p = e.tracks[at-1]
	}
	if at+1 < len(e.tracks) {
		q = e.tracks[at+1]
	}
	v := e.tracks[at]
	return e.rel.Bit(p, v) + e.rel.Bit(v, q) - e.rel.Bit(p, q)
}

// tryRemoveShield removes the shield at position at if the solution stays
// feasible, and reports whether it did. The evaluator must be feasible on
// entry, so the probe only has to find one violation the removal creates:
//
//   - the shield's two neighbours becoming a sensitive adjacency, the one
//     capacitive pair the removal can create, checked before any coupling
//     is evaluated;
//   - a total over its bound, summed per track (Model.TrackTotal, the
//     full pass's bits) inside AffectedRange, nearest the cut first
//     because the largest changes sit there. Totals outside the window
//     keep their bits, so they stay within bounds.
//
// A rejected probe restores the integer state and never touches the
// totals; an accepted one commits the window's. The verdict and the
// committed totals are those of removeAt followed by Feasible, and the
// probe counts as that sequence does: one edit, plus one rollback when
// rejected.
func (e *Eval) tryRemoveShield(at int) bool {
	e.stats.Edits++
	if at > 0 && at+1 < len(e.tracks) {
		if e.rel.Bit(e.tracks[at-1], e.tracks[at+1]) != 0 {
			e.stats.Rollbacks++
			return false
		}
	}
	e.cut(at)
	e.kept = false
	lo, hi := e.in.Model.AffectedRange(len(e.tracks), at)
	e.kt = grow(e.kt, len(e.tracks))
	for d := 0; at-1-d >= lo || at+d <= hi; d++ {
		for _, p := range [2]int{at - 1 - d, at + d} {
			if p < lo || p > hi || e.tracks[p] == Shield {
				continue
			}
			k := e.in.Model.TrackTotal(e.tracks, e.shields, p, e.rel)
			if k > e.in.Segs[e.tracks[p]].Kth {
				e.splice(at, Shield)
				e.stats.Rollbacks++
				return false
			}
			e.kt[p] = k
		}
	}
	for p := lo; p <= hi; p++ {
		if v := e.tracks[p]; v != Shield {
			e.k[v] = e.kt[p]
		}
	}
	e.nShields--
	return true
}

// splice inserts track value v at position at into the integer state:
// track stack, position index and shield table. Totals and counters are
// the caller's.
func (e *Eval) splice(at, v int) {
	e.tracks = append(e.tracks, 0)
	copy(e.tracks[at+1:], e.tracks[at:])
	e.tracks[at] = v
	e.reindex(at)
}

// cut removes the track at position at from the integer state, the
// inverse of splice, and returns its value.
func (e *Eval) cut(at int) int {
	v := e.tracks[at]
	copy(e.tracks[at:], e.tracks[at+1:])
	e.tracks = e.tracks[:len(e.tracks)-1]
	e.reindex(at)
	return v
}

// reindex refreshes the position index from position from on and
// rebuilds the shield table, after a splice or cut at from.
func (e *Eval) reindex(from int) {
	for t := from; t < len(e.tracks); t++ {
		if s := e.tracks[t]; s != Shield {
			e.pos[s] = t
		}
	}
	e.shields = e.in.Model.ShieldTableInto(e.tracks, e.shields)
}

// swapAny exchanges the tracks at two arbitrary positions.
func (e *Eval) swapAny(a, b int) {
	if a == b {
		return
	}
	e.stats.Edits++
	if a > b {
		a, b = b, a
	}
	e.tracks[a], e.tracks[b] = e.tracks[b], e.tracks[a]
	if v := e.tracks[a]; v != Shield {
		e.pos[v] = a
	}
	if v := e.tracks[b]; v != Shield {
		e.pos[v] = b
	}
	e.shields = e.in.Model.ShieldTableInto(e.tracks, e.shields)
	e.capPairs = capPairCount(e.tracks, e.rel)
	lo, _ := e.in.Model.AffectedRange(len(e.tracks), a)
	_, hi := e.in.Model.AffectedRange(len(e.tracks), b)
	e.recompute(lo, hi, -1)
}

// recompute refreshes the totals of every signal track in [lo, hi] after
// an edit; shieldAt is the position of the shield the edit inserted, or
// −1 for any other edit. Positions whose geometry did not change
// recompute to the exact same bits, so over-covering is harmless. When
// the window spans most of the stack a pair-once full pass is cheaper
// than per-track sums (which visit each in-window pair from both
// endpoints) and is used instead: after a shield insertion with the rows
// kept, the kept pass (keff.KeptTotalsInto), which evaluates only the
// pairs the shield moved; otherwise a pass that selects the rows anew. A
// windowed pass leaves the rows behind the stack.
func (e *Eval) recompute(lo, hi, shieldAt int) {
	nt := len(e.tracks)
	lo, hi = max(lo, 0), min(hi, nt-1)
	if 2*(hi-lo+1) < nt {
		e.kept = false
		for p := lo; p <= hi; p++ {
			v := e.tracks[p]
			if v == Shield {
				continue
			}
			e.setK(v, e.in.Model.TrackTotal(e.tracks, e.shields, p, e.rel))
		}
		return
	}
	if e.kept && shieldAt >= 0 {
		e.kt = grow(e.kt, nt)
		computed, carried := e.in.Model.KeptTotalsInto(&e.rows, e.tracks, e.shields, shieldAt, e.kt)
		e.stats.PairsComputed += uint64(computed)
		e.stats.PairsCarried += uint64(carried)
	} else {
		e.selectTotals()
	}
	for t, v := range e.tracks {
		if v != Shield {
			e.setK(v, e.kt[t])
		}
	}
}

// selectTotals runs a full pass that selects the kept rows anew, leaving
// each position's total in kt.
func (e *Eval) selectTotals() {
	e.kt = grow(e.kt, len(e.tracks))
	e.stats.PairsComputed += uint64(e.in.Model.SelectTotalsInto(&e.rows, e.tracks, e.shields, e.rel, e.kt))
	e.kept = true
}

// setK updates one segment's total and the over-bound counter.
func (e *Eval) setK(seg int, nk float64) {
	kth := e.in.Segs[seg].Kth
	wasOver, isOver := e.k[seg] > kth, nk > kth
	if wasOver != isOver {
		if isOver {
			e.nOver++
		} else {
			e.nOver--
		}
	}
	e.k[seg] = nk
}

// capPairCount counts the adjacent sensitive pairs of a track stack: the
// capacitive violations, and the NO objective. It adds each adjacency's
// bit (Relation.Bit, 0 beside a shield or a region wall) instead of
// branching on it.
func capPairCount(tracks []int, rel *keff.Relation) int {
	n, prev := 0, Shield
	for _, v := range tracks {
		n += rel.Bit(prev, v)
		prev = v
	}
	return n
}

// capSwapDelta returns the change in the adjacent-sensitive-pair count
// caused by swapping tracks t and t+1, evaluated on the pre-swap array.
// Only the adjacencies (t−1,t) and (t+1,t+2) can change: the swapped
// pair's own adjacency is symmetric in its operands. Region walls act as
// shields, matching capPairCount.
func capSwapDelta(tracks []int, t int, rel *keff.Relation) int {
	a, b := tracks[t], tracks[t+1]
	p, q := Shield, Shield
	if t > 0 {
		p = tracks[t-1]
	}
	if t+2 < len(tracks) {
		q = tracks[t+2]
	}
	return rel.Bit(p, b) + rel.Bit(a, q) - rel.Bit(p, a) - rel.Bit(b, q)
}

// sidePull sums the segment at track position pos's couplings to sensitive
// segments on each side — the insertion-side heuristic of repairK. Values
// and accumulation order match the historical implementation (operand
// order (pos, t), ascending t), so side choices are unchanged; the shield
// table replaces its per-pair layout rebuild and neighbor scans. Each
// side's partners are selected first (Relation.Partners, into the
// evaluator's mates buffer) and then summed.
func (e *Eval) sidePull(pos int) (left, right float64) {
	seg, m := e.tracks[pos], e.in.Model
	for _, t := range e.rel.Partners(seg, e.tracks, 0, pos-1, e.mates) {
		left += m.Pair(pos, t, e.shields[pos], e.shields[t])
	}
	for _, t := range e.rel.Partners(seg, e.tracks, pos+1, len(e.tracks)-1, e.mates) {
		right += m.Pair(pos, t, e.shields[pos], e.shields[t])
	}
	return left, right
}

// grow returns s resized to n. When its capacity is short it reallocates
// to at least twice that capacity, so a pooled buffer serving growing
// instances reallocates a logarithmic number of times, not once per new
// largest instance. The contents are not kept: every caller rewrites them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
