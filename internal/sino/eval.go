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
//	chk = sino.RepairWith(e, tighter, sol, chk.K)
//
// An Eval is reusable across instances (Bind resets it) and is designed to
// be pooled one per solver worker: its buffers persist across solves. It
// is not safe for concurrent use.
type Eval struct {
	in  *Instance
	rel *keff.Relation // pairwise sensitivity by segment index; never written

	tracks  []int       // current track assignment: segment index or Shield
	layout  keff.Layout // mirror of tracks in keff terms (Net = segment index)
	shields [][2]int    // per-position nearest return conductors
	pos     []int       // segment index -> track position
	k       []float64   // per-segment coupling totals, bit-equal to TotalK
	kt      []float64   // scratch: per-track totals for full recomputes

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
}

// Add returns the fieldwise sum.
func (s EvalStats) Add(o EvalStats) EvalStats {
	return EvalStats{
		Binds: s.Binds + o.Binds, Loads: s.Loads + o.Loads,
		Edits: s.Edits + o.Edits, Rollbacks: s.Rollbacks + o.Rollbacks,
	}
}

// Sub returns the counters accumulated since an earlier snapshot.
func (s EvalStats) Sub(o EvalStats) EvalStats {
	return EvalStats{
		Binds: s.Binds - o.Binds, Loads: s.Loads - o.Loads,
		Edits: s.Edits - o.Edits, Rollbacks: s.Rollbacks - o.Rollbacks,
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
	e.layout.Tracks = e.layout.Tracks[:0]
	e.capPairs, e.nShields, e.nOver = 0, 0, 0
}

// Relation returns the sensitivity relation of the bound instance: its
// Rel, or the snapshot Bind took. The evaluator never reuses its storage,
// so a caller may keep it for later solves of the same segments.
func (e *Eval) Relation() *keff.Relation { return e.rel }

// Load resets the evaluator to solution s, rebuilding every maintained
// quantity from scratch. It reports structural problems (missing,
// duplicated, or unknown segments); on error the evaluator must be
// Loaded again before use.
func (e *Eval) Load(s *Solution) error { return e.load(s, nil) }

// load is Load taking s's per-segment totals from k when non-nil (see
// RepairWith) instead of summing them; the over-bound count is recounted
// against the bound instance's bounds either way.
func (e *Eval) load(s *Solution, k []float64) error {
	n := len(e.in.Segs)
	e.stats.Loads++
	e.tracks = append(e.tracks[:0], s.Tracks...)
	e.pos = growInts(e.pos, n)
	for i := range e.pos {
		e.pos[i] = -1
	}
	lt := e.layout.Tracks[:0]
	e.nShields = 0
	for t, v := range e.tracks {
		if v == Shield {
			e.nShields++
			lt = append(lt, keff.ShieldOf())
			continue
		}
		if v < 0 || v >= n {
			return fmt.Errorf("sino: track holds unknown segment %d", v)
		}
		if e.pos[v] >= 0 {
			return fmt.Errorf("sino: segment %d appears twice", v)
		}
		e.pos[v] = t
		lt = append(lt, keff.SignalOf(v))
	}
	e.layout.Tracks = lt
	for i, p := range e.pos {
		if p < 0 {
			return fmt.Errorf("sino: segment %d missing from solution", i)
		}
	}
	e.shields = e.in.Model.ShieldTableInto(lt, e.shields)
	e.capPairs = e.capCount()

	e.k = growFloats(e.k, n)
	if k != nil {
		copy(e.k, k)
	} else {
		e.kt = growFloats(e.kt, len(lt))
		e.in.Model.AllTotalsInto(lt, e.shields, e.rel, e.kt)
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
	c := &Check{WorstSeg: -1}
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
	c.K = append([]float64(nil), e.k...)
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
// no couplings are re-evaluated — and the derived arrays (layout,
// position index, shield table) rebuild in O(n) integer work.
func (e *Eval) rollback() {
	e.stats.Rollbacks++
	e.tracks = append(e.tracks[:0], e.mTracks...)
	e.k = append(e.k[:0], e.mK...)
	e.capPairs, e.nShields, e.nOver = e.mCap, e.mShields, e.mOver
	lt := e.layout.Tracks[:0]
	for t, v := range e.tracks {
		if v == Shield {
			lt = append(lt, keff.ShieldOf())
		} else {
			lt = append(lt, keff.SignalOf(v))
			e.pos[v] = t
		}
	}
	e.layout.Tracks = lt
	e.shields = e.in.Model.ShieldTableInto(lt, e.shields)
}

// insertAt inserts track value v (segment index or Shield) at position at.
func (e *Eval) insertAt(at, v int) {
	e.stats.Edits++
	e.splice(at, v)
	if v == Shield {
		e.nShields++
	}
	e.refreshAround(at)
}

// removeAt removes the track at position at and returns its value.
func (e *Eval) removeAt(at int) int {
	e.stats.Edits++
	v := e.cut(at)
	if v == Shield {
		e.nShields--
	} else {
		e.pos[v] = -1
	}
	e.refreshAround(at)
	return v
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
		l, r := e.tracks[at-1], e.tracks[at+1]
		if l != Shield && r != Shield && e.rel.Has(l, r) {
			e.stats.Rollbacks++
			return false
		}
	}
	e.cut(at)
	lo, hi := e.in.Model.AffectedRange(e.layout, at)
	e.kt = growFloats(e.kt, len(e.tracks))
	for d := 0; at-1-d >= lo || at+d <= hi; d++ {
		for _, p := range [2]int{at - 1 - d, at + d} {
			if p < lo || p > hi || e.tracks[p] == Shield {
				continue
			}
			k := e.in.Model.TrackTotal(e.layout.Tracks, e.shields, p, e.rel)
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
// track array, layout mirror, position index and shield table. Totals
// and counters are the caller's.
func (e *Eval) splice(at, v int) {
	e.tracks = append(e.tracks, 0)
	copy(e.tracks[at+1:], e.tracks[at:])
	e.tracks[at] = v
	lt := append(e.layout.Tracks, keff.Track{})
	copy(lt[at+1:], lt[at:])
	if v == Shield {
		lt[at] = keff.ShieldOf()
	} else {
		lt[at] = keff.SignalOf(v)
	}
	e.layout.Tracks = lt
	e.reindex(at)
}

// cut removes the track at position at from the integer state, the
// inverse of splice, and returns its value.
func (e *Eval) cut(at int) int {
	v := e.tracks[at]
	copy(e.tracks[at:], e.tracks[at+1:])
	e.tracks = e.tracks[:len(e.tracks)-1]
	lt := e.layout.Tracks
	copy(lt[at:], lt[at+1:])
	e.layout.Tracks = lt[:len(lt)-1]
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
	e.shields = e.in.Model.ShieldTableInto(e.layout.Tracks, e.shields)
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
	lt := e.layout.Tracks
	lt[a], lt[b] = lt[b], lt[a]
	if v := e.tracks[a]; v != Shield {
		e.pos[v] = a
	}
	if v := e.tracks[b]; v != Shield {
		e.pos[v] = b
	}
	e.shields = e.in.Model.ShieldTableInto(lt, e.shields)
	e.capPairs = e.capCount()
	lo, _ := e.in.Model.AffectedRange(e.layout, a)
	_, hi := e.in.Model.AffectedRange(e.layout, b)
	e.recompute(lo, hi)
}

// refreshAround recounts the capacitive pairs after an insert/remove edit
// at position at and recomputes the affected window.
func (e *Eval) refreshAround(at int) {
	e.capPairs = e.capCount()
	e.recompute(e.in.Model.AffectedRange(e.layout, at))
}

// recompute refreshes the totals of every signal track in [lo, hi].
// Positions whose geometry did not change recompute to the exact same
// bits, so over-covering is harmless; when the window spans most of the
// layout the pair-once full pass is cheaper than per-track sums (which
// visit each in-window pair from both endpoints) and is used instead.
func (e *Eval) recompute(lo, hi int) {
	nt := len(e.tracks)
	if lo < 0 {
		lo = 0
	}
	if hi > nt-1 {
		hi = nt - 1
	}
	if 2*(hi-lo+1) >= nt {
		e.kt = growFloats(e.kt, nt)
		e.in.Model.AllTotalsInto(e.layout.Tracks, e.shields, e.rel, e.kt)
		for t, v := range e.tracks {
			if v != Shield {
				e.setK(v, e.kt[t])
			}
		}
	} else {
		for p := lo; p <= hi; p++ {
			v := e.tracks[p]
			if v == Shield {
				continue
			}
			e.setK(v, e.in.Model.TrackTotal(e.layout.Tracks, e.shields, p, e.rel))
		}
	}
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

// capCount recounts adjacent sensitive pairs through the relation.
func (e *Eval) capCount() int {
	n := 0
	prev := Shield
	for _, v := range e.tracks {
		if v == Shield {
			prev = Shield
			continue
		}
		if prev != Shield && e.rel.Has(prev, v) {
			n++
		}
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
	pair := func(x, y int) int {
		if x != Shield && y != Shield && rel.Has(x, y) {
			return 1
		}
		return 0
	}
	return pair(p, b) + pair(a, q) - pair(p, a) - pair(b, q)
}

// sidePull sums the segment at track position pos's couplings to sensitive
// segments on each side — the insertion-side heuristic of repairK. Values
// and accumulation order match the historical implementation (operand
// order (pos, t), ascending t), so side choices are unchanged; the shield
// table replaces its per-pair layout rebuild and neighbor scans.
func (e *Eval) sidePull(pos int) (left, right float64) {
	seg := e.tracks[pos]
	for t, other := range e.tracks {
		if t == pos || other == Shield || !e.rel.Has(seg, other) {
			continue
		}
		k := e.in.Model.Pair(pos, t, e.shields[pos], e.shields[t])
		if t < pos {
			left += k
		} else {
			right += k
		}
	}
	return left, right
}

// growInts returns s resized to n, reallocating only when needed.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growFloats returns s resized to n, reallocating only when needed.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
