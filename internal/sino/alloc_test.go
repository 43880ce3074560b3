package sino

import (
	"reflect"
	"slices"
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

// TestReserveSizesOnce solves and repairs instances of growing size on an
// evaluator reserved for the largest of them, as an engine worker is for
// its batch, and requires that no buffer indexed by segment or by track
// is reallocated.
func TestReserveSizesOnce(t *testing.T) {
	ev := NewEval()
	ev.Reserve(40)
	caps := func() []int {
		b := &ev.build
		return []int{cap(ev.pos), cap(ev.k), cap(ev.mates), cap(ev.tracks), cap(ev.shields), cap(ev.kt),
			cap(b.deg), cap(b.order), cap(b.placed), cap(b.tracks)}
	}
	want := caps()
	for n := 5; n <= 40; n += 5 {
		in := testInstance(n, 0.5, 0.6, int64(n))
		sol, chk := SolveWith(ev, in)
		tight := &Instance{Segs: append([]Seg(nil), in.Segs...), Sensitive: in.Sensitive, Model: in.Model}
		for i := range tight.Segs {
			tight.Segs[i].Kth *= 0.7
		}
		if err := RepairWith(ev, tight, sol, chk.K); err != nil {
			t.Fatal(err)
		}
		if got := caps(); !slices.Equal(got, want) {
			t.Fatalf("%d segments: buffer capacities %v, reserved %v", n, got, want)
		}
	}
}
