// Package keff implements the paper's two noise models (§2):
//
//   - The Keff model of He–Lepak: a formula-based inductive coupling
//     coefficient K_ij between two signal nets placed on tracks inside one
//     routing region, and the per-net total K_i = Σ_j K_ij over sensitive
//     aggressors. The published formula lives in a technical report; this
//     package reconstructs it from loop inductance first principles (see
//     DESIGN.md, substitution 3): each signal wire forms a current loop with
//     its nearest shield (routing-region walls are pre-routed P/G wires and
//     count as shields), and K_ij is the normalized loop-to-loop mutual.
//
//   - The length-scaled Keff model (LSK, §2.2): LSK_i = Σ_r l_r·K_i^r summed
//     over the regions r the net crosses, tied to a crosstalk voltage by a
//     100-entry lookup table built from transient simulations. This package
//     provides the table, read from voltage to LSK bound (Table.LSKFor);
//     internal/core sums each routed net's LSK.
//
// A Model is immutable once built: NewModel tabulates everything a pair
// evaluation reads, so one Model is safe for concurrent use by every
// worker and engine, and every pair is computed from the same tables by
// the same code (DESIGN.md §4).
package keff

import (
	"fmt"
	"math"

	"repro/internal/tech"
)

// Shield marks a shield track in a track stack. A region's track stack, in
// one routing direction, is a []int in geometric order: each entry is a
// caller-defined net id ≥ 0 or Shield. The region walls at positions -1
// and len(tracks) are implicit shields (pre-routed P/G wires, paper §2.1).
const Shield = -1

// Model computes coupling coefficients for a track stack under a technology.
//
// K_ij factors into terms of each wire alone — its current split and
// effective loop inductance, functions of its two return distances — and
// nine partial mutuals between the two wires and their returns, all read
// from one row indexed by signed separation. Return distances from a
// shield table are 1…backgroundReturn, so a pair d tracks apart reads
// mutuals at most |d| + 2·backgroundReturn pitches apart; NewModel builds
// both tables once (about 5.5 KB), and a pair within inRowSep is then
// nine row reads and a dozen flops. A Model is immutable and safe for
// concurrent use.
type Model struct {
	tech *tech.Technology

	// row[uint8(x+rowMid)] is the partial mutual at a signed separation
	// of x pitches, |x| < rowMid: the row mirrored over negative
	// separations, row[rowMid] = Lself.
	row   [2 * rowMid]float64
	wires [backgroundReturn * backgroundReturn]wire
}

// NewModel returns a Model over t, its tables built.
func NewModel(t *tech.Technology) *Model {
	m := &Model{tech: t}
	for i := range m.row {
		if x := i - rowMid; x == 0 {
			m.row[i] = t.LSelf(refLength)
		} else {
			m.row[i] = m.far(x)
		}
	}
	for l := 1; l <= backgroundReturn; l++ {
		for r := 1; r <= backgroundReturn; r++ {
			m.wires[(l-1)*backgroundReturn+r-1] = m.wireAt(l, r)
		}
	}
	return m
}

// Clone returns a copy of the model. A Model is immutable, so a clone is
// never needed for concurrency; it remains for the benchmark harness,
// which still gives each of its workers one.
func (m *Model) Clone() *Model {
	c := *m
	return &c
}

// refLength is the wire length (meters) used in the partial-inductance
// formulas. K varies only logarithmically with length, so a fixed
// reference keeps the model a pure function of the track stack.
const refLength = 1e-3

// backgroundReturn is the distance, in track pitches, of the implicit
// return path provided by the chip's power distribution (standard-cell
// power rails run under the global layers at roughly this pitch). When no
// explicit shield or region wall is nearer, return currents close through
// this background grid, which caps loop sizes — and with them the coupling
// between far-apart tracks.
const backgroundReturn = 12

// pairCutoff is the track separation beyond which PairCoupling is
// negligible: loops larger than the background grid pitch cannot form, so
// tracks more than a few loop diameters apart are effectively decoupled.
// AllTotals and TotalCoupling skip pairs beyond the cutoff.
const pairCutoff = 4 * backgroundReturn

// rowMid is the row's zero separation: the row covers separations
// −rowMid…rowMid−1, so a uint8 index cannot leave it.
const rowMid = 128

// inRowSep is the largest track separation whose pairs read only the
// row: a wire's return to the far side of its partner's lies |d| + 2·12
// pitches away. Every in-cutoff pair is in the row; sidePull's far
// partners may not be.
const inRowSep = rowMid - 1 - 2*backgroundReturn

// at returns the partial mutual at a signed separation of x pitches,
// |x| < rowMid. The index wraps into the row instead of leaving it, so
// the read has neither a sign branch nor a bounds check.
func (m *Model) at(x int) float64 { return m.row[uint8(x+rowMid)] }

// far computes the partial mutual at a signed separation of x ≠ 0
// pitches by the formula the row is built with, so a read past the row
// carries the bits a longer row would.
func (m *Model) far(x int) float64 {
	return m.tech.LMutual(float64(max(x, -x))*m.tech.Pitch(), refLength)
}

// wire holds the terms of K_ij that depend on one wire alone.
type wire struct {
	w    [2]float64 // share of the current returning left and right
	leff float64    // effective loop inductance under that split
}

// wireAt computes the terms of a wire whose return conductors sit l and r
// pitches to its left and right. Its current splits inversely to the loop
// inductances Lloop = 2·(L − M(return)) — the tighter loop carries more —
// floored at 1e-3·L.
func (m *Model) wireAt(l, r int) wire {
	ls := m.at(0)
	loop := func(d int) float64 {
		ll := 2 * (ls - m.at(d))
		if ll < 1e-3*ls {
			ll = 1e-3 * ls
		}
		return ll
	}
	ll, lr := loop(l), loop(r)
	w := [2]float64{lr / (ll + lr), ll / (ll + lr)}
	return wire{w: w, leff: w[0]*ll + w[1]*lr}
}

// wireTerms returns the tabulated terms of a wire with capped return
// distances l, r ∈ [1, backgroundReturn], as every shield table yields.
func (m *Model) wireTerms(l, r int) *wire {
	return &m.wires[(l-1)*backgroundReturn+r-1]
}

// pair is K_ij for signal tracks d = tj − ti apart, |d| ≤ inRowSep, wire
// i returning il and ir pitches to its left and right, wire j jl and jr,
// with their terms wi and wj: the in-row kernel every totals pass runs,
// its nine mutuals read from the row.
func (m *Model) pair(d, il, ir, jl, jr int, wi, wj *wire) float64 {
	return loopK(wi, wj, m.at(d), m.at(jl-d), m.at(d+jr), m.at(d+il), m.at(ir-d),
		m.at(d+il-jl), m.at(d+il+jr), m.at(d-ir-jl), m.at(d-ir+jr))
}

// pairFar is pair for |d| > inRowSep, whose reads leave the row: the same
// nine separations, each mutual computed by the formula.
func (m *Model) pairFar(d, il, ir, jl, jr int, wi, wj *wire) float64 {
	return loopK(wi, wj, m.far(d), m.far(jl-d), m.far(d+jr), m.far(d+il), m.far(ir-d),
		m.far(d+il-jl), m.far(d+il+jr), m.far(d-ir-jl), m.far(d-ir+jr))
}

// loopK combines a pair's nine partial mutuals into K_ij: md between the
// wires, mjl and mjr from wire i to j's returns, mil and mir from i's
// returns to wire j, and mab between i's return a and j's return b. It
// averages the loop-to-loop mutual over the four return combinations
// (a, b), weighted by both current splits:
//
//	Mloop(a, b) = M(w_i,w_j) − M(w_i,s_j^b) − M(s_i^a,w_j) + M(s_i^a,s_j^b)
//	K_ij = |Σ w_i^a·w_j^b·Mloop(a, b)| / √(Leff_i·Leff_j)
func loopK(wi, wj *wire, md, mjl, mjr, mil, mir, mll, mlr, mrl, mrr float64) float64 {
	var mloop float64
	mloop += wi.w[0] * wj.w[0] * (md - mjl - mil + mll)
	mloop += wi.w[0] * wj.w[1] * (md - mjr - mil + mlr)
	mloop += wi.w[1] * wj.w[0] * (md - mjl - mir + mrl)
	mloop += wi.w[1] * wj.w[1] * (md - mjr - mir + mrr)
	k := math.Abs(mloop) / math.Sqrt(wi.leff*wj.leff)
	if k >= 1 {
		k = 0.999999
	}
	return k
}

// shieldNeighbors returns the positions of the nearest return conductor on
// each side of track i: an explicit shield track, the implicit wall shields
// at -1 and len(tracks), or the virtual background-return rail when nothing
// nearer exists.
func (m *Model) shieldNeighbors(tracks []int, i int) (left, right int) {
	left, right = -1, len(tracks)
	for p := i - 1; p >= 0; p-- {
		if tracks[p] == Shield {
			left = p
			break
		}
	}
	for p := i + 1; p < len(tracks); p++ {
		if tracks[p] == Shield {
			right = p
			break
		}
	}
	return max(left, i-backgroundReturn), min(right, i+backgroundReturn)
}

// PairCoupling returns K_ij between the signal tracks at positions ti and tj
// of the track stack tr, a dimensionless coupling coefficient in [0, 1).
//
// Each signal wire returns current through the nearest shield on each side
// (routing-region walls included), splitting inversely to the loop
// inductances — current prefers the tighter loop. With partial self- and
// mutual inductances L(·), M(·,·), for a particular choice of returns
// (s_i, s_j):
//
//	Lloop(w, s) = 2·(L(w) − M(w, s))
//	Mloop(s_i, s_j) = M(w_i,w_j) − M(w_i,s_j) − M(s_i,w_j) + M(s_i,s_j)
//
// and the model averages Mloop over the four return combinations weighted
// by the current split. Two wires sharing the same return conductor pick up
// its self-inductance through the M(s_i,s_j) term, which is what makes
// unshielded nets that both return through a distant region wall couple so
// strongly — and why a dedicated shield between or beside the pair collapses
// K_ij. That contrast is exactly the effect SINO exploits.
//
// shieldNeighbors caps both return distances to 1…backgroundReturn, so the
// pair reads the tabulated wire terms through Pair.
func (m *Model) PairCoupling(tr []int, ti, tj int) float64 {
	if ti == tj {
		panic("keff: PairCoupling of a track with itself")
	}
	if ti < 0 || ti >= len(tr) || tj < 0 || tj >= len(tr) {
		panic(fmt.Sprintf("keff: track index out of range: %d, %d (have %d)", ti, tj, len(tr)))
	}
	if tr[ti] == Shield || tr[tj] == Shield {
		panic("keff: PairCoupling requires signal tracks")
	}
	il, ir := m.shieldNeighbors(tr, ti)
	jl, jr := m.shieldNeighbors(tr, tj)
	return m.Pair(ti, tj, [2]int{il, ir}, [2]int{jl, jr})
}

// TotalCoupling returns K_i for the signal track at position ti: the sum of
// PairCoupling over every other signal track whose net is sensitive to the
// net on ti (paper §2.2: "the total amount of inductive coupling Ki induced
// on Ni is Σ K_ij for all signal nets that are sensitive to Ni").
//
// rel holds the sensitivity between the stack's nets; every net id in tr
// must be below rel.Len().
func (m *Model) TotalCoupling(tr []int, ti int, rel *Relation) float64 {
	if tr[ti] == Shield {
		panic("keff: TotalCoupling requires a signal track")
	}
	sum := 0.0
	for tj := range tr {
		if tj == ti || tr[tj] == Shield {
			continue
		}
		if d := tj - ti; d > pairCutoff || -d > pairCutoff {
			continue
		}
		if !rel.Has(tr[ti], tr[tj]) {
			continue
		}
		sum += m.PairCoupling(tr, ti, tj)
	}
	return sum
}

// AllTotals returns K_i for every track position (0 for shield positions),
// computing each pair once. Shield neighborhoods are precomputed and pairs
// beyond the background-return cutoff are skipped, so the cost is
// O(n·cutoff) in the number of tracks with O(1) work per pair.
func (m *Model) AllTotals(tr []int, rel *Relation) []float64 {
	out := make([]float64, len(tr))
	m.AllTotalsInto(tr, m.ShieldTableInto(tr, nil), rel, out)
	return out
}
