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

// TrackKind says what occupies one track of a region layout.
type TrackKind int8

// Track contents.
const (
	SignalTrack TrackKind = iota
	ShieldTrack
)

// Track is one slot in a region's track stack, in geometric order.
type Track struct {
	Kind TrackKind
	Net  int // caller-defined net identifier; meaningful for SignalTrack only
}

// ShieldOf returns a shield track.
func ShieldOf() Track { return Track{Kind: ShieldTrack} }

// SignalOf returns a signal track for net id.
func SignalOf(id int) Track { return Track{Kind: SignalTrack, Net: id} }

// Layout is the ordered track assignment of one routing region in one
// routing direction. The region walls at positions -1 and len(Tracks) are
// implicit shields (pre-routed P/G wires, paper §2.1).
type Layout struct {
	Tracks []Track
}

// Model computes coupling coefficients for a layout under a technology.
//
// K_ij factors into terms of each wire alone — its current split and
// effective loop inductance, functions of its two return distances — and
// nine partial mutuals between the two wires and their returns, all read
// from one distance-indexed row. Return distances from a shield table are
// 1…backgroundReturn, and in-cutoff pairs reach mutuals at most
// pairCutoff + 2·backgroundReturn pitches apart, so NewModel builds both
// tables once (about 4 KB); a pair evaluation is then nine row reads and
// a dozen flops. A Model is immutable and safe for concurrent use.
type Model struct {
	tech *tech.Technology

	mu    [rowLen]float64 // mu[d] = partial mutual at d track pitches; mu[0] = Lself
	wires [backgroundReturn * backgroundReturn]wire
}

// NewModel returns a Model over t, its tables built.
func NewModel(t *tech.Technology) *Model {
	m := &Model{tech: t}
	m.mu[0] = t.LSelf(refLength)
	for d := 1; d < rowLen; d++ {
		m.mu[d] = m.farMutual(d)
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
// reference keeps the model a pure function of the layout.
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

// rowLen covers every mutual an in-cutoff pair with capped returns reads:
// a wire's return to the far side of its partner's, |d| + 2·12 pitches.
const rowLen = pairCutoff + 2*backgroundReturn + 1

// mutualAt returns the partial mutual inductance between two parallel wires
// d track pitches apart (d = 0 returns the self-inductance). Distances past
// the row — sidePull's partners beyond the cutoff, or returns beyond the
// background rail — are computed by the same formula the row was built
// with, so they carry the same bits a longer row would.
func (m *Model) mutualAt(d int) float64 {
	if d < 0 {
		d = -d
	}
	if uint(d) < rowLen {
		return m.mu[d]
	}
	return m.farMutual(d)
}

// farMutual computes the partial mutual at d > 0 pitches. It stays out of
// line so that mutualAt, called nine times per pair, inlines.
//
//go:noinline
func (m *Model) farMutual(d int) float64 {
	return m.tech.LMutual(float64(d)*m.tech.Pitch(), refLength)
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
	ls := m.mu[0]
	loop := func(d int) float64 {
		ll := 2 * (ls - m.mutualAt(d))
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

// pair is K_ij for signal tracks d = tj − ti apart, wire i returning il and
// ir pitches to its left and right, wire j jl and jr, with their terms wi
// and wj. It averages the loop-to-loop mutual over the four return
// combinations (a, b), weighted by both current splits:
//
//	Mloop(a, b) = M(w_i,w_j) − M(w_i,s_j^b) − M(s_i^a,w_j) + M(s_i^a,s_j^b)
//	K_ij = |Σ w_i^a·w_j^b·Mloop(a, b)| / √(Leff_i·Leff_j)
func (m *Model) pair(d, il, ir, jl, jr int, wi, wj *wire) float64 {
	md := m.mutualAt(d)
	mjl, mjr := m.mutualAt(jl-d), m.mutualAt(d+jr) // wire i to j's returns
	mil, mir := m.mutualAt(d+il), m.mutualAt(ir-d) // i's returns to wire j
	var mloop float64
	mloop += wi.w[0] * wj.w[0] * (md - mjl - mil + m.mutualAt(d+il-jl))
	mloop += wi.w[0] * wj.w[1] * (md - mjr - mil + m.mutualAt(d+il+jr))
	mloop += wi.w[1] * wj.w[0] * (md - mjl - mir + m.mutualAt(d-ir-jl))
	mloop += wi.w[1] * wj.w[1] * (md - mjr - mir + m.mutualAt(d-ir+jr))
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
func (m *Model) shieldNeighbors(tracks []Track, i int) (left, right int) {
	left, right = -1, len(tracks)
	for p := i - 1; p >= 0; p-- {
		if tracks[p].Kind == ShieldTrack {
			left = p
			break
		}
	}
	for p := i + 1; p < len(tracks); p++ {
		if tracks[p].Kind == ShieldTrack {
			right = p
			break
		}
	}
	return max(left, i-backgroundReturn), min(right, i+backgroundReturn)
}

// PairCoupling returns K_ij between the signal tracks at positions ti and tj
// of the layout, a dimensionless coupling coefficient in [0, 1).
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
func (m *Model) PairCoupling(l Layout, ti, tj int) float64 {
	tr := l.Tracks
	if ti == tj {
		panic("keff: PairCoupling of a track with itself")
	}
	if ti < 0 || ti >= len(tr) || tj < 0 || tj >= len(tr) {
		panic(fmt.Sprintf("keff: track index out of range: %d, %d (have %d)", ti, tj, len(tr)))
	}
	if tr[ti].Kind != SignalTrack || tr[tj].Kind != SignalTrack {
		panic("keff: PairCoupling requires signal tracks")
	}
	il, ir := m.shieldNeighbors(tr, ti)
	jl, jr := m.shieldNeighbors(tr, tj)
	return m.pairCouplingAt(ti, tj, [2]int{il, ir}, [2]int{jl, jr})
}

// pairCouplingAt computes K_ij given each wire's left/right return
// conductors at any distance (region walls included), building both
// wires' terms the way NewModel tabulates them.
func (m *Model) pairCouplingAt(ti, tj int, si, sj [2]int) float64 {
	il, ir, jl, jr := ti-si[0], si[1]-ti, tj-sj[0], sj[1]-tj
	wi, wj := m.wireAt(il, ir), m.wireAt(jl, jr)
	return m.pair(tj-ti, il, ir, jl, jr, &wi, &wj)
}

// TotalCoupling returns K_i for the signal track at position ti: the sum of
// PairCoupling over every other signal track whose net is sensitive to the
// net on ti (paper §2.2: "the total amount of inductive coupling Ki induced
// on Ni is Σ K_ij for all signal nets that are sensitive to Ni").
//
// sensitive(a, b) must report whether nets a and b are sensitive to each
// other; it is only consulted for distinct signal tracks.
func (m *Model) TotalCoupling(l Layout, ti int, sensitive func(a, b int) bool) float64 {
	tr := l.Tracks
	if tr[ti].Kind != SignalTrack {
		panic("keff: TotalCoupling requires a signal track")
	}
	sum := 0.0
	for tj := range tr {
		if tj == ti || tr[tj].Kind != SignalTrack {
			continue
		}
		if d := tj - ti; d > pairCutoff || -d > pairCutoff {
			continue
		}
		if !sensitive(tr[ti].Net, tr[tj].Net) {
			continue
		}
		sum += m.PairCoupling(l, ti, tj)
	}
	return sum
}

// AllTotals returns K_i for every track position (0 for shield positions),
// computing each pair once. Shield neighborhoods are precomputed and pairs
// beyond the background-return cutoff are skipped, so the cost is
// O(n·cutoff) in the number of tracks with O(1) work per pair.
func (m *Model) AllTotals(l Layout, sensitive func(a, b int) bool) []float64 {
	tr := l.Tracks
	out := make([]float64, len(tr))
	m.AllTotalsInto(tr, m.shieldTable(tr), sensitive, out)
	return out
}

// shieldTable precomputes each position's nearest return conductors in one
// sweep per direction, applying the background-return cap.
func (m *Model) shieldTable(tr []Track) [][2]int {
	return m.ShieldTableInto(tr, nil)
}
