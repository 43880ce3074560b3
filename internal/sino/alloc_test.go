package sino

import (
	"reflect"
	"testing"
)

// TestSolveAndRepairAllocations pins what a solve and a repair allocate on
// a warm pooled evaluator, bound to an instance that carries its relation.
// A solve allocates its solution (the struct and its tracks, at their
// final length) and its report (the struct and its totals): construction
// and the solve's working stack live on the evaluator. A repair that
// inserts no shield allocates nothing: it builds no report, and writes its
// totals into the array it was given.
func TestSolveAndRepairAllocations(t *testing.T) {
	in := testInstance(30, 0.5, 0.7, 3)
	in.Rel = NewRelation(in.Segs, in.Sensitive)
	ev := NewEval()
	sol, chk := SolveWith(ev, in)
	if !chk.Feasible() {
		t.Fatalf("fixture infeasible: %d cap pairs, %d over", len(chk.CapPairs), len(chk.Over))
	}
	if got := testing.AllocsPerRun(100, func() { SolveWith(ev, in) }); got != 4 {
		t.Errorf("warm SolveWith: %v allocations, want 4 (solution, tracks, report, totals)", got)
	}

	tracks := append([]int(nil), sol.Tracks...)
	if got := testing.AllocsPerRun(100, func() { RepairWith(ev, in, sol, chk.K) }); got != 0 {
		t.Errorf("warm RepairWith inserting no shield: %v allocations, want 0", got)
	}
	if len(sol.Tracks) != len(tracks) {
		t.Fatalf("repair of a feasible solution inserted shields: %v → %v", tracks, sol.Tracks)
	}
	if want := in.TotalK(sol); !reflect.DeepEqual(chk.K, want) {
		t.Errorf("repair left totals %v in the array it was given, want %v", chk.K, want)
	}
}
