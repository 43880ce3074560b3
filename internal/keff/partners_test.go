package keff

import (
	"math/rand"
	"slices"
	"testing"
)

// partnerSizes are the relation sizes FuzzPartners draws from: rows of
// one, two and three words, with net ids on each word edge.
var partnerSizes = [...]int{1, 63, 64, 65, 130}

// branchyPartners is the per-position filter Relation.Partners replaced:
// every position of [lo, hi] whose track is a net sensitive to net a.
func branchyPartners(rel *Relation, a int, tr []int, lo, hi int) []int {
	var out []int
	for q := lo; q <= hi; q++ {
		if tr[q] != Shield && rel.Has(a, tr[q]) {
			out = append(out, q)
		}
	}
	return out
}

// FuzzPartners holds the branch-free partner selection to the branchy
// filter on random track stacks with shields, over relations of every
// partnerSizes size at any rate. The relation is built with SetIf, and
// must hold the bits of a reference built by branching on Set; the
// filter reads the reference. Windows are clipped to the stack at
// either end, and may be empty. Each selection writes into a buffer of
// exactly the documented size: hi−lo+1 positions for any stack, and
// r.Len() for a stack that holds each net once, across the whole stack.
// Bit must equal Has, and read 0 beside a Shield.
func FuzzPartners(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(9), uint8(60), uint8(128), int16(-3), int16(40))
	f.Add(int64(2), uint8(1), uint8(80), uint8(30), uint8(200), int16(10), int16(9))
	f.Add(int64(3), uint8(2), uint8(130), uint8(0), uint8(255), int16(60), int16(300))
	f.Add(int64(4), uint8(3), uint8(200), uint8(90), uint8(77), int16(-100), int16(-1))
	f.Add(int64(5), uint8(4), uint8(255), uint8(40), uint8(153), int16(64), int16(129))
	f.Fuzz(func(t *testing.T, seed int64, size, width, shieldRate, sensRate uint8, lo, hi int16) {
		n := partnerSizes[int(size)%len(partnerSizes)]
		rng := rand.New(rand.NewSource(seed))
		p := float64(sensRate) / 255
		rel, ref := NewRelation(n), NewRelation(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				s := rng.Float64() < p
				rel.SetIf(a, b, s)
				if s {
					ref.Set(a, b)
				}
			}
		}
		if !slices.Equal(rel.bits, ref.bits) {
			t.Fatalf("%d nets: SetIf's rows differ from Set's", n)
		}
		pShield := float64(shieldRate) / 255

		// Any stack: nets drawn with repeats, the buffer the window's size.
		tr := make([]int, int(width))
		for q := range tr {
			tr[q] = rng.Intn(n)
			if rng.Float64() < pShield {
				tr[q] = Shield
			}
		}
		a := rng.Intn(n)
		l, h := max(int(lo), 0), min(int(hi), len(tr)-1)
		got := rel.Partners(a, tr, l, h, make([]int, max(h-l+1, 0)))
		if want := branchyPartners(ref, a, tr, l, h); !slices.Equal(got, want) {
			t.Fatalf("%d nets, net %d, window [%d,%d] of %v: Partners %v, filter %v", n, a, l, h, tr, got, want)
		}
		for _, v := range tr {
			bit := 0
			if v != Shield && ref.Has(a, v) {
				bit = 1
			}
			if rel.Bit(a, v) != bit || rel.Bit(v, a) != bit {
				t.Fatalf("%d nets: Bit(%d, %d) = %d, Bit(%d, %d) = %d, want %d", n, a, v, rel.Bit(a, v), v, a, rel.Bit(v, a), bit)
			}
		}
		if rel.Bit(Shield, Shield) != 0 {
			t.Fatalf("%d nets: Bit(Shield, Shield) = %d", n, rel.Bit(Shield, Shield))
		}

		// A stack holding each net once, net a included: a buffer of
		// r.Len() serves the whole stack, and a is never its own partner.
		tr = tr[:0]
		for _, v := range rng.Perm(n) {
			for k := 0; k < 3 && rng.Float64() < pShield; k++ {
				tr = append(tr, Shield)
			}
			tr = append(tr, v)
		}
		got = rel.Partners(a, tr, 0, len(tr)-1, make([]int, n))
		if want := branchyPartners(ref, a, tr, 0, len(tr)-1); !slices.Equal(got, want) {
			t.Fatalf("%d nets, net %d, whole stack %v: Partners %v, filter %v", n, a, tr, got, want)
		}
	})
}
