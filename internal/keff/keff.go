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
// Concurrency contract (what internal/engine builds on): a Model memoizes
// partial inductances lazily and is NOT safe for concurrent use — clone one
// per worker with Model.Clone. A PairCache stores pure functions of track
// geometry in one lock-free table and IS safe to share across workers and
// engines; cached and uncached runs are bit-identical.
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
// It memoizes the distance-indexed partial inductances, so PairCoupling is
// O(1) after warm-up; a Model is not safe for concurrent use.
type Model struct {
	Tech *tech.Technology

	mu []float64 // mu[d] = partial mutual at d track pitches; mu[0] = Lself
}

// NewModel returns a Model over t.
func NewModel(t *tech.Technology) *Model {
	return &Model{Tech: t}
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

// mutualAt returns the partial mutual inductance between two parallel wires
// d track pitches apart (d = 0 returns the self-inductance), memoized.
func (m *Model) mutualAt(d int) float64 {
	if d < 0 {
		d = -d
	}
	for len(m.mu) <= d {
		i := len(m.mu)
		var v float64
		if i == 0 {
			v = m.Tech.LSelf(refLength)
		} else {
			v = m.Tech.LMutual(float64(i)*m.Tech.Pitch(), refLength)
		}
		m.mu = append(m.mu, v)
	}
	return m.mu[d]
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

// pairCouplingAt computes K_ij given each wire's left/right return shields.
func (m *Model) pairCouplingAt(ti, tj int, si, sj [2]int) float64 {
	ls := m.mutualAt(0)
	loop := func(w, s int) float64 {
		ll := 2 * (ls - m.mutualAt(w-s))
		if ll < 1e-3*ls {
			ll = 1e-3 * ls
		}
		return ll
	}
	li := [2]float64{loop(ti, si[0]), loop(ti, si[1])}
	lj := [2]float64{loop(tj, sj[0]), loop(tj, sj[1])}
	// Current split: the share through the left return is proportional to
	// the inductance of the *right* loop (lower-inductance path carries
	// more).
	wi := [2]float64{li[1] / (li[0] + li[1]), li[0] / (li[0] + li[1])}
	wj := [2]float64{lj[1] / (lj[0] + lj[1]), lj[0] / (lj[0] + lj[1])}

	var mloop float64
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			ml := m.mutualAt(ti-tj) - m.mutualAt(ti-sj[b]) - m.mutualAt(si[a]-tj) + m.mutualAt(si[a]-sj[b])
			mloop += wi[a] * wj[b] * ml
		}
	}
	leffI := wi[0]*li[0] + wi[1]*li[1]
	leffJ := wj[0]*lj[0] + wj[1]*lj[1]
	k := math.Abs(mloop) / math.Sqrt(leffI*leffJ)
	if k >= 1 {
		k = 0.999999
	}
	return k
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
	return m.AllTotalsCached(nil, l, sensitive)
}

// shieldTable precomputes each position's nearest return conductors in one
// sweep per direction, applying the background-return cap.
func (m *Model) shieldTable(tr []Track) [][2]int {
	return m.ShieldTableInto(tr, nil)
}
