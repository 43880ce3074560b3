package keff

import "math/bits"

// Relation is a pairwise sensitivity relation over the net ids of a track
// stack's signal tracks, taken once: one bit row per net, bit b of row a
// set when nets a and b are sensitive to each other (paper §2.2: K_i sums
// K_ij over the nets N_i is sensitive to). Rows hold both orientations, so
// a partner test is one shift and mask with no normalisation, and the
// totals passes read the fixed track's row once per row. The diagonal is
// never set. Only the code that builds a relation calls Set or SetIf; once
// it is shared nothing writes it, so any number of goroutines may read it.
type Relation struct {
	n      int // nets covered: 0 … n−1
	stride int // words per row
	bits   []uint64
}

// NewRelation returns an empty relation over nets 0 … n−1, for its
// builder to fill with Set or SetIf. It holds at least one word, so a
// Shield's masked read (Bit, Partners) has a word to read even over no
// nets.
func NewRelation(n int) *Relation {
	stride := (n + 63) / 64
	return &Relation{n: n, stride: stride, bits: make([]uint64, max(n*stride, 1))}
}

// Set marks nets a ≠ b as sensitive to each other, in both orientations.
func (r *Relation) Set(a, b int) { r.SetIf(a, b, true) }

// SetIf is Set when s holds and does nothing otherwise, without a branch
// on s: it ORs s's bit into both rows, so a builder asking a random
// relation pair by pair pays no misprediction per answer.
func (r *Relation) SetIf(a, b int, s bool) {
	var bit uint64
	if s {
		bit = 1
	}
	r.bits[a*r.stride+b>>6] |= bit << (uint(b) & 63)
	r.bits[b*r.stride+a>>6] |= bit << (uint(a) & 63)
}

// Len returns the number of nets the relation covers.
func (r *Relation) Len() int { return r.n }

// Has reports whether nets a and b are sensitive to each other; false
// for a == b.
func (r *Relation) Has(a, b int) bool {
	return r.bits[a*r.stride+b>>6]&(1<<(b&63)) != 0
}

// Degree returns the number of nets a is sensitive to, its row's
// popcount.
func (r *Relation) Degree(a int) int {
	d := 0
	for _, w := range r.row(a) {
		d += bits.OnesCount64(w)
	}
	return d
}

// Bit returns 1 when nets a and b are sensitive to each other and 0
// otherwise, a Shield on either side counting as no net: Has as a number,
// read without a branch, so a count over adjacent tracks adds it. A
// Shield on either side masks both ids to net 0, whose own bit is clear.
func (r *Relation) Bit(a, b int) int {
	s := (a | b) >> 63 // −1 when either is a Shield, 0 otherwise
	a, b = a&^s, b&^s
	return int(r.bits[a*r.stride+b>>6] >> (uint(b) & 63) & 1)
}

// Partners selects, in ascending order, the positions q ∈ [lo, hi] of the
// track stack tr whose nets are sensitive to net a, writing them into buf
// and returning buf[:count]. It writes every position and advances the
// count by the position's partner bit instead of branching on it: the
// paper draws the relation at random (its §4), so each test is a coin
// flip that a branch predictor cannot learn. A Shield reads net 0's bit,
// which its mask then clears, so no read leaves a's row; a itself is
// never selected, since the diagonal is clear. buf must hold hi−lo+1
// positions, or r.Len() when tr holds each net once. An empty window
// (hi < lo) selects nothing.
func (r *Relation) Partners(a int, tr []int, lo, hi int, buf []int) []int {
	row := r.row(a)
	n := 0
	for q := lo; q <= hi; q++ {
		b := tr[q]
		s := b >> 63 // −1 for a Shield, 0 for a net
		b &^= s
		buf[n] = q
		n += int(row[uint(b)>>6] >> (uint(b) & 63) & 1 &^ uint64(s))
	}
	return buf[:n]
}

// row returns net a's bit row.
func (r *Relation) row(a int) []uint64 {
	return r.bits[a*r.stride : (a+1)*r.stride]
}
