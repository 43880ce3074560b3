package keff

// This file holds the pair-summing entry points the incremental SINO
// evaluator (internal/sino) runs in its inner loops, and the from-scratch
// totals pass its full-layout passes (rows.go) are held to. Each
// evaluates pairs from the model's tables (wireTerms, the mutual row)
// through the one kernel, with the fixed wire's terms read once per row.
// The totals passes only sum in-cutoff pairs, so they always run the
// in-row pair.

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
// the property the incremental evaluator's windowed updates rest on. The
// partners on each side are selected first (Relation.Partners), left
// then right, and the kernel runs over them. Every net id in tr must be
// below rel.Len().
func (m *Model) TrackTotal(tr []int, shields [][2]int, ti int, rel *Relation) float64 {
	il, ir := ti-shields[ti][0], shields[ti][1]-ti
	wt := m.wireTerms(il, ir)
	var buf [pairCutoff]int
	sum := 0.0
	for _, q := range rel.Partners(tr[ti], tr, max(ti-pairCutoff, 0), ti-1, buf[:]) {
		ql, qr := q-shields[q][0], shields[q][1]-q
		sum += m.pair(ti-q, ql, qr, il, ir, m.wireTerms(ql, qr), wt)
	}
	for _, q := range rel.Partners(tr[ti], tr, ti+1, min(ti+pairCutoff, len(tr)-1), buf[:]) {
		ql, qr := q-shields[q][0], shields[q][1]-q
		sum += m.pair(q-ti, il, ir, ql, qr, wt, m.wireTerms(ql, qr))
	}
	return sum
}

// AllTotalsInto computes every track position's total coupling into out
// (len(tr), zeroed here), evaluating each pair once — the allocation-free
// core of AllTotals, the from-scratch reference that SINO's verify runs
// and that SelectTotalsInto and KeptTotalsInto equal bit for bit. Each
// row selects the fixed track's partners among the next pairCutoff
// positions first (Relation.Partners, into a stack buffer) and then runs
// the kernel over them in ascending order, so the pairs, their operands
// and the accumulation order are those of a per-pair test. A row's own
// total is summed in a register, as the kept passes sum theirs: the
// partners all lie to its right, so no other write reaches out[i] while
// its row runs, and the additions are the same in the same order. Every
// net id in tr must be below rel.Len().
func (m *Model) AllTotalsInto(tr []int, shields [][2]int, rel *Relation, out []float64) {
	clear(out)
	var buf [pairCutoff]int
	for i := range tr {
		if tr[i] == Shield {
			continue
		}
		il, ir := i-shields[i][0], shields[i][1]-i
		wi := m.wireTerms(il, ir)
		sum := out[i]
		for _, j := range rel.Partners(tr[i], tr, i+1, min(i+pairCutoff, len(tr)-1), buf[:]) {
			jl, jr := j-shields[j][0], shields[j][1]-j
			k := m.pair(j-i, il, ir, jl, jr, wi, m.wireTerms(jl, jr))
			sum += k
			out[j] += k
		}
		out[i] = sum
	}
}

// ShieldTableInto fills out (grown as needed, to at least twice its
// capacity, and returned) with each position's nearest return conductors
// — the reusable-buffer form of the table AllTotals precomputes.
func (m *Model) ShieldTableInto(tr []int, out [][2]int) [][2]int {
	n := len(tr)
	out = grow(out, n)
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
