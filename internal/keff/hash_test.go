package keff

import "testing"

func TestHashDeterministic(t *testing.T) {
	feed := func() [2]uint64 {
		h := NewHash()
		h.Int(42)
		h.F64(3.25)
		h.Bool(true)
		h.U64(1 << 63)
		return h.Sum()
	}
	if feed() != feed() {
		t.Fatal("identical streams hashed differently")
	}
}

func TestHashOrderAndValueSensitivity(t *testing.T) {
	sum := func(words ...uint64) [2]uint64 {
		h := NewHash()
		for _, w := range words {
			h.U64(w)
		}
		return h.Sum()
	}
	if sum(1, 2) == sum(2, 1) {
		t.Fatal("hash is order-insensitive")
	}
	if sum(1, 2) == sum(1, 3) {
		t.Fatal("hash is value-insensitive")
	}
	// Trailing zero words must matter (the length is folded into Sum).
	if sum(1) == sum(1, 0) {
		t.Fatal("trailing zero word did not change the hash")
	}
	if sum() == sum(0) {
		t.Fatal("empty stream collides with a single zero word")
	}
}

func TestHashFloatBitExact(t *testing.T) {
	sum := func(x float64) [2]uint64 {
		h := NewHash()
		h.F64(x)
		return h.Sum()
	}
	zero, negZero := 0.0, 0.0
	negZero = -negZero
	if sum(zero) == sum(negZero) {
		t.Fatal("+0 and -0 must hash differently (bit-exact keys)")
	}
	if sum(1.0) == sum(1.0+1e-15) {
		t.Fatal("last-ulp difference must change the hash")
	}
}

// TestHashCollisionSmoke feeds a few thousand distinct small inputs and
// requires all 128-bit sums to be distinct — a smoke test for gross mixing
// failures, not a collision-resistance proof.
func TestHashCollisionSmoke(t *testing.T) {
	seen := make(map[[2]uint64]uint64, 1<<14)
	for i := uint64(0); i < 1<<13; i++ {
		h := NewHash()
		h.U64(i)
		s := h.Sum()
		if prev, dup := seen[s]; dup {
			t.Fatalf("collision between %d and %d", prev, i)
		}
		seen[s] = i
	}
}
