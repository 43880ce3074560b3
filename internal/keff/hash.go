package keff

import (
	"math"
	"math/bits"
)

// Hash is a streaming 128-bit content hasher for deriving deterministic
// cache keys from structured inputs — internal/artifact keys whole routing
// problems (netlist, grid, router config) with it. It is not cryptographic:
// the goal is a stable, platform-independent fingerprint with enough state
// that accidental collisions between real inputs are vanishingly unlikely.
//
// The construction runs two independent 64-bit lanes over the word stream,
// each multiplying the input word by an odd constant and dispersing it with
// the splitmix64 finalizer; lane B additionally rotates its accumulator so
// the lanes never collapse into one. Sum folds in the word count, so
// streams that differ only by trailing zero words still differ.
//
// Every input is reduced to uint64 words before mixing. Floats hash by IEEE
// bit pattern (math.Float64bits), making keys bit-exact: +0 and -0 differ,
// as do values that only differ in the last ulp — exactly the discipline the
// byte-equality determinism contract needs.
type Hash struct {
	a, b uint64
	n    uint64
}

const (
	hashSeedA = 0x9e3779b97f4a7c15
	hashSeedB = 0xc2b2ae3d27d4eb4f
	hashMulA  = 0x2545f4914f6cdd1d
	hashMulB  = 0xff51afd7ed558ccd
)

// NewHash returns an empty hasher.
func NewHash() *Hash {
	return &Hash{a: hashSeedA, b: hashSeedB}
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche permutation of
// the 64-bit space.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// U64 absorbs one word.
func (h *Hash) U64(x uint64) {
	h.n++
	h.a = mix64(h.a ^ (x * hashMulA))
	h.b = mix64(bits.RotateLeft64(h.b, 29) ^ (x * hashMulB))
}

// Int absorbs an int.
func (h *Hash) Int(x int) { h.U64(uint64(int64(x))) }

// F64 absorbs a float by IEEE-754 bit pattern (bit-exact, no rounding).
func (h *Hash) F64(x float64) { h.U64(math.Float64bits(x)) }

// Bool absorbs a bool.
func (h *Hash) Bool(x bool) {
	if x {
		h.U64(1)
	} else {
		h.U64(0)
	}
}

// Sum finalizes without consuming the hasher: more words may be absorbed
// after, and Sum called again.
func (h *Hash) Sum() [2]uint64 {
	a := mix64(h.a ^ mix64(h.n+1))
	b := mix64(h.b ^ a)
	return [2]uint64{a, b}
}
