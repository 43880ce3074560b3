package sino

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/keff"
)

// This file keeps the evaluator's partner and adjacency reads as they were
// when each tested the relation with a branch, as the oracle the
// branch-free forms (Relation.Partners, Relation.Bit) are held to.

// branchySidePull is sidePull testing every track against the relation.
func (e *Eval) branchySidePull(pos int) (left, right float64) {
	seg := e.tracks[pos]
	for t, other := range e.tracks {
		if t == pos || other == Shield || !e.rel.Has(seg, other) {
			continue
		}
		k := e.in.Model.Pair(pos, t, e.shields[pos], e.shields[t])
		if t < pos {
			left += k
		} else {
			right += k
		}
	}
	return left, right
}

// branchyCapCount is capPairCount branching on each adjacency.
func branchyCapCount(tracks []int, rel *keff.Relation) int {
	n := 0
	prev := Shield
	for _, v := range tracks {
		if v == Shield {
			prev = Shield
			continue
		}
		if prev != Shield && rel.Has(prev, v) {
			n++
		}
		prev = v
	}
	return n
}

// branchyCapSwapDelta is capSwapDelta branching on each adjacency.
func branchyCapSwapDelta(tracks []int, t int, rel *keff.Relation) int {
	a, b := tracks[t], tracks[t+1]
	p, q := Shield, Shield
	if t > 0 {
		p = tracks[t-1]
	}
	if t+2 < len(tracks) {
		q = tracks[t+2]
	}
	pair := func(x, y int) int {
		if x != Shield && y != Shield && rel.Has(x, y) {
			return 1
		}
		return 0
	}
	return pair(p, b) + pair(a, q) - pair(p, a) - pair(b, q)
}

// TestBranchFreeReadsMatchBranchy loads random solutions — shields at the
// ends, in runs and between every segment included — of instances up to
// 130 segments at rates 0 to 1, and requires sidePull's two sums (bit
// for bit), the adjacency count and every capSwapDelta to equal the
// branchy forms.
func TestBranchFreeReadsMatchBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 7, 40, 64, 65, 130} {
		for _, rate := range []float64{0, 0.3, 0.5, 1} {
			for _, shieldFrac := range []float64{0, 0.3, 1.5} {
				in := testInstance(n, rate, 0.7, rng.Int63())
				sol := randomSolution(n, shieldFrac, rng)
				e := NewEval()
				e.Bind(in)
				if err := e.load(sol.Tracks, nil); err != nil {
					t.Fatal(err)
				}
				if got, want := e.capPairs, branchyCapCount(e.tracks, e.rel); got != want {
					t.Fatalf("n=%d rate=%g: adjacency count %d, branchy %d on %v", n, rate, got, want, e.tracks)
				}
				for tt := 0; tt+1 < len(e.tracks); tt++ {
					if got, want := capSwapDelta(e.tracks, tt, e.rel), branchyCapSwapDelta(e.tracks, tt, e.rel); got != want {
						t.Fatalf("n=%d rate=%g: capSwapDelta at %d = %d, branchy %d on %v", n, rate, tt, got, want, e.tracks)
					}
				}
				for pos, v := range e.tracks {
					if v == Shield {
						continue
					}
					l, r := e.sidePull(pos)
					wl, wr := e.branchySidePull(pos)
					if math.Float64bits(l) != math.Float64bits(wl) || math.Float64bits(r) != math.Float64bits(wr) {
						t.Fatalf("n=%d rate=%g pos=%d: sidePull (%v, %v), branchy (%v, %v)", n, rate, pos, l, r, wl, wr)
					}
				}
			}
		}
	}
}
