package keff

import "math/bits"

// Relation is a pairwise sensitivity relation over the Net values of a
// layout's signal tracks, taken once: one bit row per net, bit b of row a
// set when nets a and b are sensitive to each other (paper §2.2: K_i sums
// K_ij over the nets N_i is sensitive to). Rows hold both orientations, so
// a partner test is one shift and mask with no normalisation, and the
// totals passes slice the fixed track's row once per row. The diagonal is
// never set. Only the code that builds a relation calls Set; once it is
// shared nothing writes it, so any number of goroutines may read it.
type Relation struct {
	n      int // nets covered: 0 … n−1
	stride int // words per row
	bits   []uint64
}

// NewRelation returns an empty relation over nets 0 … n−1, for its
// builder to fill with Set.
func NewRelation(n int) *Relation {
	stride := (n + 63) / 64
	return &Relation{n: n, stride: stride, bits: make([]uint64, n*stride)}
}

// Set marks nets a ≠ b as sensitive to each other, in both orientations.
func (r *Relation) Set(a, b int) {
	r.bits[a*r.stride+b>>6] |= 1 << (b & 63)
	r.bits[b*r.stride+a>>6] |= 1 << (a & 63)
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

// row returns net a's bit row, for partner tests with inRow.
func (r *Relation) row(a int) []uint64 {
	return r.bits[a*r.stride : (a+1)*r.stride]
}

// inRow reports whether net b's bit is set in row.
func inRow(row []uint64, b int) bool {
	return row[uint(b)>>6]&(1<<(uint(b)&63)) != 0
}
