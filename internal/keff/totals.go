package keff

// This file holds the pair-summing entry points the incremental SINO
// evaluator (internal/sino) runs in its inner loops. Each evaluates pairs
// from the model's tables (wireTerms, the mutual row) through the one
// kernel, with the fixed wire's terms read once per row. The totals
// passes only sum in-cutoff pairs, so they always run the in-row pair.

// Pair returns K_ij for signal tracks at positions ti and tj given each
// wire's left/right return conductors, as ShieldTableInto produces them
// (return distances within the background return). Separations past
// inRowSep take pairFar.
func (m *Model) Pair(ti, tj int, si, sj [2]int) float64 {
	il, ir, jl, jr := ti-si[0], si[1]-ti, tj-sj[0], sj[1]-tj
	d, wi, wj := tj-ti, m.wireTerms(il, ir), m.wireTerms(jl, jr)
	if d <= inRowSep && -d <= inRowSep {
		return m.pair(d, il, ir, jl, jr, wi, wj)
	}
	return m.pairFar(d, il, ir, jl, jr, wi, wj)
}

// TrackTotal returns the total coupling K of the signal track at position
// ti: the sum of Pair over its partners in rel within the pair cutoff,
// taken in ascending track order with the lower position as the first
// operand. That is exactly the accumulation order AllTotals uses for the
// same position, so the result is bit-identical to AllTotals(...)[ti] —
// the property the incremental evaluator's windowed updates rest on.
// Every net id in tr must be below rel.Len().
func (m *Model) TrackTotal(tr []int, shields [][2]int, ti int, rel *Relation) float64 {
	il, ir := ti-shields[ti][0], shields[ti][1]-ti
	wt := m.wireTerms(il, ir)
	row := rel.row(tr[ti])
	sum := 0.0
	hi := min(ti+pairCutoff, len(tr)-1)
	for q := max(ti-pairCutoff, 0); q <= hi; q++ {
		if q == ti || tr[q] == Shield || !inRow(row, tr[q]) {
			continue
		}
		ql, qr := q-shields[q][0], shields[q][1]-q
		if q < ti {
			sum += m.pair(ti-q, ql, qr, il, ir, m.wireTerms(ql, qr), wt)
		} else {
			sum += m.pair(q-ti, il, ir, ql, qr, wt, m.wireTerms(ql, qr))
		}
	}
	return sum
}

// AllTotalsInto computes every track position's total coupling into out
// (len(tr), zeroed here), evaluating each pair once — the allocation-free
// core of AllTotals, for callers that maintain their own shield table and
// output buffer. The fixed track's row of rel is sliced once per row, so
// each partner test is a shift and mask. Every net id in tr must be below
// rel.Len().
func (m *Model) AllTotalsInto(tr []int, shields [][2]int, rel *Relation, out []float64) {
	clear(out)
	for i := range tr {
		if tr[i] == Shield {
			continue
		}
		row := rel.row(tr[i])
		il, ir := i-shields[i][0], shields[i][1]-i
		wi := m.wireTerms(il, ir)
		jMax := min(i+pairCutoff, len(tr)-1)
		for j := i + 1; j <= jMax; j++ {
			if tr[j] == Shield || !inRow(row, tr[j]) {
				continue
			}
			jl, jr := j-shields[j][0], shields[j][1]-j
			k := m.pair(j-i, il, ir, jl, jr, wi, m.wireTerms(jl, jr))
			out[i] += k
			out[j] += k
		}
	}
}

// ShieldTableInto fills out (grown as needed, returned) with each
// position's nearest return conductors — the reusable-buffer form of the
// table AllTotals precomputes.
func (m *Model) ShieldTableInto(tr []int, out [][2]int) [][2]int {
	n := len(tr)
	if cap(out) < n {
		out = make([][2]int, n)
	}
	out = out[:n]
	last := -1
	for i := 0; i < n; i++ {
		out[i][0] = max(last, i-backgroundReturn)
		if tr[i] == Shield {
			last = i
		}
	}
	next := n
	for i := n - 1; i >= 0; i-- {
		out[i][1] = min(next, i+backgroundReturn)
		if tr[i] == Shield {
			next = i
		}
	}
	return out
}

// AffectedRange returns the inclusive range of track positions, in a stack
// of n tracks, whose total couplings can change when one track is
// inserted, removed, or swapped at position at — the window an incremental
// evaluator must recompute after an edit. A total at position p is a sum
// of pair couplings with partners at most the pair cutoff away (plus one,
// for pairs entering or leaving the cutoff as the edit shifts
// separations), and a summed pair changes only if
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
func (m *Model) AffectedRange(n, at int) (lo, hi int) {
	const span = pairCutoff + backgroundReturn + 1
	return max(at-span, 0), min(at+span, n-1)
}
