package keff

// This file is the single-worker evaluation front end of the coupling
// model: a Coupler bundles a Model with the shared PairCache, when there is
// one, and batches cache statistics per caller operation. The incremental
// SINO evaluator (internal/sino) keeps one Coupler per worker;
// AllTotalsCached is a thin wrapper over the same code path, so cached and
// direct evaluations are bit-identical by construction.

// Coupler evaluates pair couplings for one worker. It is not safe for
// concurrent use (it wraps a Model, which memoizes lazily); concurrent
// solvers give each worker its own Coupler, sharing at most the PairCache.
//
// A Coupler with a PairCache looks each pair up in it; one without computes
// directly. Both return the exact same float64 bits for the same relative
// geometry — couplings are pure functions of geometry, and the cache stores
// the computed value verbatim — so the choice is invisible to callers.
type Coupler struct {
	m  *Model
	c  *PairCache
	ls lookStats
}

// NewCoupler returns a Coupler over m, using the shared cache c when
// non-nil.
func NewCoupler(m *Model, c *PairCache) *Coupler {
	return &Coupler{m: m, c: c}
}

// Model returns the underlying coupling model.
func (cp *Coupler) Model() *Model { return cp.m }

// SharedCache returns the shared PairCache, or nil when the Coupler
// computes directly.
func (cp *Coupler) SharedCache() *PairCache { return cp.c }

// Flush pushes batched cache counters to the shared cache. Callers
// batching many Pair evaluations (one solver operation, one totals pass)
// flush once at the end instead of paying an atomic add per pair.
func (cp *Coupler) Flush() {
	if cp.c != nil {
		cp.c.flush(&cp.ls)
	}
}

// Pair returns K_ij for signal tracks at positions ti and tj given each
// wire's left/right return conductors (as produced by ShieldTableInto or
// shieldNeighbors) — pairCouplingAt behind the shared cache, if any.
func (cp *Coupler) Pair(ti, tj int, si, sj [2]int) float64 {
	if cp.c == nil {
		return cp.m.pairCouplingAt(ti, tj, si, sj)
	}
	return cp.c.pair(cp.m, &cp.ls, ti, tj, si, sj)
}

// TrackTotal returns the total coupling K of the signal track at position
// ti: the sum of Pair over its sensitive partners within the pair cutoff,
// taken in ascending track order with the lower position as the first
// operand. That is exactly the accumulation order AllTotals uses for the
// same position, so the result is bit-identical to AllTotalsCached(...)[ti]
// — the property the incremental evaluator's windowed updates rest on.
func (cp *Coupler) TrackTotal(tr []Track, shields [][2]int, ti int, sensitive func(a, b int) bool) float64 {
	sum := 0.0
	hi := min(ti+pairCutoff, len(tr)-1)
	for q := max(ti-pairCutoff, 0); q <= hi; q++ {
		if q == ti || tr[q].Kind != SignalTrack || !sensitive(tr[ti].Net, tr[q].Net) {
			continue
		}
		if q < ti {
			sum += cp.Pair(q, ti, shields[q], shields[ti])
		} else {
			sum += cp.Pair(ti, q, shields[ti], shields[q])
		}
	}
	return sum
}

// AllTotalsInto computes every track position's total coupling into out
// (len(tr), zeroed here), evaluating each pair once — the allocation-free
// core of AllTotalsCached, for callers that maintain their own shield
// table and output buffer.
func (cp *Coupler) AllTotalsInto(tr []Track, shields [][2]int, sensitive func(a, b int) bool, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for i := range tr {
		if tr[i].Kind != SignalTrack {
			continue
		}
		jMax := min(i+pairCutoff, len(tr)-1)
		for j := i + 1; j <= jMax; j++ {
			if tr[j].Kind != SignalTrack {
				continue
			}
			if !sensitive(tr[i].Net, tr[j].Net) {
				continue
			}
			k := cp.Pair(i, j, shields[i], shields[j])
			out[i] += k
			out[j] += k
		}
	}
}

// ShieldTableInto fills out (grown as needed, returned) with each
// position's nearest return conductors — the reusable-buffer form of the
// table AllTotals precomputes.
func (m *Model) ShieldTableInto(tr []Track, out [][2]int) [][2]int {
	n := len(tr)
	if cap(out) < n {
		out = make([][2]int, n)
	}
	out = out[:n]
	last := -1
	for i := 0; i < n; i++ {
		out[i][0] = max(last, i-backgroundReturn)
		if tr[i].Kind == ShieldTrack {
			last = i
		}
	}
	next := n
	for i := n - 1; i >= 0; i-- {
		out[i][1] = min(next, i+backgroundReturn)
		if tr[i].Kind == ShieldTrack {
			next = i
		}
	}
	return out
}

// AffectedRange returns the inclusive range of track positions in l whose
// total couplings can change when one track is inserted, removed, or
// swapped at position at — the window an incremental evaluator must
// recompute after an edit. A total at position p is a sum of pair
// couplings with partners at most the pair cutoff away (plus one, for pairs
// entering or leaving the cutoff as the edit shifts separations), and a
// summed pair changes only if
//
//  1. it straddles the edit point (its separation shifted) — both
//     endpoints then lie within cutoff+1 of the edit; or
//  2. an endpoint's return path changed — a shield appearing, disappearing,
//     or moving re-routes return currents only for wires whose
//     shieldNeighbors search reaches the edit point, which the
//     background-return cap bounds by bg = 12 pitches.
//
// The farthest affected total is therefore a position p whose partner q
// sits bg inside the edit (case 2) with p a full cutoff beyond q:
// |p−at| ≤ cutoff + bg + 1. Totals outside the window are bit-identical
// before and after the edit: every pair they sum has unchanged separation
// and unchanged returns.
func (m *Model) AffectedRange(l Layout, at int) (lo, hi int) {
	const span = pairCutoff + backgroundReturn + 1
	return max(at-span, 0), min(at+span, len(l.Tracks)-1)
}
