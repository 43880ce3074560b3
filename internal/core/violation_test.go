package core

import (
	"context"
	"math/rand"
	"reflect"
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
				if len(in.segs) == 0 || in.sol == nil {
					continue
				}
				seg := rng.Intn(len(in.segs))
				if rng.Intn(2) == 0 {
					// Repair-style edit: tighten one bound, shield-insert.
					in.segs[seg].Kth *= 0.6 + 0.3*rng.Float64()
					if in.segs[seg].Kth < 0.05 {
						in.segs[seg].Kth = 0.05
					}
					res := w.Do(st.job(in, engine.ModeRepair))
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					in.apply(res)
				} else {
					// Relax-style edit: loosen one bound, full re-solve.
					in.segs[seg].Kth *= 1 + 0.4*rng.Float64()
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
					changed := tr.flush()
					for i := 1; i < len(changed); i++ {
						if changed[i-1] >= changed[i] {
							t.Fatalf("flush change set not ascending: %v", changed)
						}
					}
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
// tracker oracle and FuzzConflictGraphUpdate pin the rest given a correct
// touched set. A full pass 1 must then leave the tracker and the live
// conflict graph equal to their from-scratch rebuilds.
func TestRepairNetTouchesEveryMutation(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		r, st := ibmRefineFixture(t, 16, 0.5, seed, Params{})
		tr := st.newViolTracker()
		wave := colorConflicts(newConflictGraph(st, tr, nil).snapshot())[0]
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
		g, err := runPass1(context.Background(), st, tr, &stats)
		if err != nil {
			t.Fatal(err)
		}
		checkTrackerOracle(t, st, tr)
		rebuilt := newConflictGraph(st, st.newViolTracker(), g.unfixable)
		if got, want := g.snapshot(), rebuilt.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: live graph after pass 1 %+v, rebuilt %+v", seed, got, want)
		}
	}
}

// TestViolTrackerFlushIdempotent pins flush's contract details: flushing
// with nothing dirty returns nil, a touch that changes nothing reports no
// change, and refresh counting matches the dirty set size.
func TestViolTrackerFlushIdempotent(t *testing.T) {
	_, st := ibmRefineFixture(t, 16, 0.5, 1, Params{})
	tr := st.newViolTracker()
	if got := tr.flush(); got != nil {
		t.Fatalf("flush with nothing dirty returned %v", got)
	}
	in := st.orderd[0]
	tr.touchInst(in)
	dirty := len(tr.dirty)
	if got := tr.flush(); got != nil {
		t.Fatalf("flush after no-op touch reported changes: %v", got)
	}
	if tr.refreshes != dirty {
		t.Fatalf("refreshes = %d, want %d (one per dirty net)", tr.refreshes, dirty)
	}
	checkTrackerOracle(t, st, tr)
}
