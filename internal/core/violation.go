package core

// Phase III's between-wave bookkeeping used to recompute every net's LSK
// from scratch at each barrier — O(nets × terms) per wave, the serial tail
// ROADMAP's Amdahl pass targets. The violation tracker below makes that
// incremental. The incidence argument (DESIGN.md §10): a repair or
// relaxation mutates exactly the instances it re-solves (segment bounds,
// the solution, the per-segment coupling totals k), and a net's LSK reads
// only the (len, k) pairs of its own segment terms. A net's violation
// state can therefore change only when one of *its* instances was touched
// — the nets with a segment in a repaired or relaxed regionInst.
// Everything else keeps its LSK bit for bit, so refreshing only the
// incident nets reproduces the from-scratch sweep exactly.
//
// Bit-stability is load-bearing, not best-effort: the refreshed LSK is
// computed by the same lskOf summation (same term order, same float
// additions) the full recompute uses, so the tracker's (violating set,
// severities) is always bit-identical to a from-scratch sweep — the
// randomized oracle in violation_test.go pins this after every edit
// script, and the wave schedule built on top stays byte-identical at any
// worker count.

// violTracker maintains per-net LSK values and the violating-net set
// across refinement edits. It is created from a fully solved chip state
// and kept current by touchInst + flush around every mutation barrier.
type violTracker struct {
	st   *chipState
	lsk  []float64 // per-net LSK, bit-equal to st.lskOf at all times
	viol []bool    // lsk > budget·(1+eps) — st.violating's criterion
	n    int       // violating-net count

	dirtyMark []bool // nets awaiting refresh
	dirty     []int  // their ids, in touch order; sized for every net once

	refreshes int // net LSK refreshes performed by flush (RefineStats.Refreshed)
}

// newViolTracker performs the one full O(nets × terms) sweep and seeds the
// maintained state from it.
func (st *chipState) newViolTracker() *violTracker {
	t := &violTracker{
		st:        st,
		lsk:       make([]float64, len(st.terms)),
		viol:      make([]bool, len(st.terms)),
		dirtyMark: make([]bool, len(st.terms)),
		dirty:     make([]int, 0, len(st.terms)),
	}
	for i := range st.terms {
		t.lsk[i] = st.lskOf(i)
		if t.lsk[i] > st.lskb[i]*(1+1e-9) {
			t.viol[i] = true
			t.n++
		}
	}
	return t
}

// count returns the number of currently violating nets. Callers must have
// flushed pending touches first.
func (t *violTracker) count() int { return t.n }

// touchInst marks every net with a segment in the instance as needing a
// refresh. Call it for each instance a repair or relaxation mutated, then
// flush once at the barrier.
func (t *violTracker) touchInst(in *regionInst) {
	for i := range in.Segs {
		if net := in.Segs[i].Net; !t.dirtyMark[net] {
			t.dirtyMark[net] = true
			t.dirty = append(t.dirty, net)
		}
	}
}

// flush refreshes every dirty net's LSK and violation state. The refresh
// recomputes each net's LSK with the identical summation the full sweep
// uses, so flushed state bit-matches a from-scratch recompute.
func (t *violTracker) flush() {
	t.refreshes += len(t.dirty)
	for _, net := range t.dirty {
		t.dirtyMark[net] = false
		lsk := t.st.lskOf(net)
		viol := lsk > t.st.lskb[net]*(1+1e-9)
		t.lsk[net] = lsk
		if viol != t.viol[net] {
			t.viol[net] = viol
			if viol {
				t.n++
			} else {
				t.n--
			}
		}
	}
	t.dirty = t.dirty[:0]
}

// violating returns the violating net ids ascending — the maintained
// counterpart of chipState.violating (the from-scratch oracle the tests
// compare against). O(nets) scan, no per-net term walks.
func (t *violTracker) violating() []int {
	var out []int
	for i, v := range t.viol {
		if v {
			out = append(out, i)
		}
	}
	return out
}
