package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
)

// checkTrackerOracle asserts the tracker bit-matches the from-scratch
// recompute: identical violating set, identical per-net LSK (severity)
// down to the last bit, and a consistent count. This is the equivalence
// the whole incremental-barrier design rests on (DESIGN.md §10).
func checkTrackerOracle(t *testing.T, st *chipState, tr *violTracker) {
	t.Helper()
	want := st.violating()
	got := tr.violating()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tracker violating set %v, oracle %v", got, want)
	}
	if tr.count() != len(want) {
		t.Fatalf("tracker count %d, oracle %d", tr.count(), len(want))
	}
	for net := range st.terms {
		if lsk := st.lskOf(net); tr.lsk[net] != lsk {
			t.Fatalf("net %d: tracked LSK %x, oracle %x (bit mismatch)", net, tr.lsk[net], lsk)
		}
	}
}

// flushChanged flushes tr and returns, ascending, the nets whose tracked
// LSK or violation membership the flush changed: the change set the
// retired live conflict graph consumed.
func flushChanged(tr *violTracker) []int {
	lsk, viol := slices.Clone(tr.lsk), slices.Clone(tr.viol)
	tr.flush()
	var changed []int
	for net := range lsk {
		if tr.lsk[net] != lsk[net] || tr.viol[net] != viol[net] {
			changed = append(changed, net)
		}
	}
	return changed
}

// TestViolTrackerOracleRandomEdits drives randomized repair/relax edit
// scripts against real solved chip states and, after every barrier
// (flush), requires the maintained (violating set, severities) to
// bit-match a from-scratch recompute — the edit-script equivalence
// pattern sino's incremental evaluator is pinned by. Three seeds times
// two engine widths; edits run through the real solver so the mutations
// are exactly the ones refinement performs (bound tighten + repair,
// bound loosen + re-solve).
func TestViolTrackerOracleRandomEdits(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			r, st := ibmRefineFixture(t, 16, 0.5, seed, Params{Workers: workers})
			tr := st.newViolTracker()
			checkTrackerOracle(t, st, tr)

			w := poolWorker(t, r.eng)
			rng := rand.New(rand.NewSource(seed * 7919))
			pending := 0
			for step := 0; step < 60; step++ {
				in := st.orderd[rng.Intn(len(st.orderd))]
				if len(in.Segs) == 0 || in.sol == nil {
					continue
				}
				seg := rng.Intn(len(in.Segs))
				if rng.Intn(2) == 0 {
					// Repair-style edit: tighten one bound, shield-insert.
					in.Segs[seg].Kth *= 0.6 + 0.3*rng.Float64()
					if in.Segs[seg].Kth < 0.05 {
						in.Segs[seg].Kth = 0.05
					}
					res := w.Do(st.job(in, engine.ModeRepair))
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					in.apply(res)
				} else {
					// Relax-style edit: loosen one bound, full re-solve.
					in.Segs[seg].Kth *= 1 + 0.4*rng.Float64()
					res := w.Do(st.job(in, engine.ModeSolve))
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					in.apply(res)
				}
				tr.touchInst(in)
				pending++
				// Vary the barrier cadence: sometimes several edits batch
				// into one flush, as a repair wave's do.
				if rng.Intn(3) > 0 || step == 59 {
					tr.flush()
					checkTrackerOracle(t, st, tr)
					pending = 0
				}
			}
			if pending > 0 {
				tr.flush()
				checkTrackerOracle(t, st, tr)
			}
		}
	}
}

// TestRepairNetTouchesEveryMutation pins what the incremental barrier
// trusts repairNet for: its touched set holds every instance the repair
// mutated (bounds, solution, or couplings), so refreshing the nets of the
// touched instances refreshes every net whose LSK can have moved. The
// tracker oracle and FuzzWaveNodes pin the rest given a correct touched
// set. A full pass 1 must then leave the tracker, and the graph derived
// from it, equal to their from-scratch rebuilds.
func TestRepairNetTouchesEveryMutation(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		r, st := ibmRefineFixture(t, 16, 0.5, seed, Params{})
		tr := st.newViolTracker()
		wave := colorConflicts(waveNodes(tr, make([]bool, len(st.terms)), nil), new(colorBuf))[0]
		w := poolWorker(t, r.eng)
		mutated := 0
		for _, nd := range wave {
			snaps := snapshotState(st)
			_, _, touched, err := st.repairNet(context.Background(), nd.net, w)
			if err != nil {
				t.Fatal(err)
			}
			inTouched := make(map[*regionInst]bool, len(touched))
			for _, in := range touched {
				inTouched[in] = true
			}
			for i, in := range st.orderd {
				if instEqualsSnap(in, &snaps[i]) {
					continue
				}
				mutated++
				if !inTouched[in] {
					t.Fatalf("seed %d net %d: repair mutated instance %d (region %d horz %v) but left it out of touched",
						seed, nd.net, i, in.key.region, in.key.horz)
				}
			}
		}
		if mutated == 0 {
			t.Fatalf("seed %d: the first wave mutated nothing; fixture drifted", seed)
		}

		_, st = ibmRefineFixture(t, 16, 0.5, seed, Params{})
		tr = st.newViolTracker()
		var stats refineStats
		unfixable, err := runPass1(context.Background(), st, tr, &stats)
		if err != nil {
			t.Fatal(err)
		}
		checkTrackerOracle(t, st, tr)
		if err := sameNodes(retired(waveNodes(tr, unfixable, nil)), retired(st.conflictNodes(unfixable))); err != nil {
			t.Fatalf("seed %d: graph derived after pass 1 against the from-scratch sweep: %v", seed, err)
		}
	}
}

// TestViolTrackerFlushIdempotent pins flush's contract details: flushing
// with nothing dirty changes nothing, neither does a touch of an unchanged
// instance, and refresh counting matches the dirty set size.
func TestViolTrackerFlushIdempotent(t *testing.T) {
	_, st := ibmRefineFixture(t, 16, 0.5, 1, Params{})
	tr := st.newViolTracker()
	if got := flushChanged(tr); got != nil {
		t.Fatalf("flush with nothing dirty changed nets %v", got)
	}
	in := st.orderd[0]
	tr.touchInst(in)
	dirty := len(tr.dirty)
	if got := flushChanged(tr); got != nil {
		t.Fatalf("flush after no-op touch changed nets %v", got)
	}
	if tr.refreshes != dirty {
		t.Fatalf("refreshes = %d, want %d (one per dirty net)", tr.refreshes, dirty)
	}
	checkTrackerOracle(t, st, tr)
}
