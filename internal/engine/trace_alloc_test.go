package engine

import "testing"

// TestDisabledJobSpanZeroAlloc guards the Phase II inner loop: the exact
// span sequence Run records around every solveJob — worker-lane lookup,
// Start with the job's mode name, one Arg, End — must allocate nothing
// when the engine is untraced. This is the engine-side half of the
// contract obs pins with TestDisabledSpanZeroAlloc: observability off the
// hot path costs zero.
func TestDisabledJobSpanZeroAlloc(t *testing.T) {
	e := New(Config{Workers: 2})
	allocs := testing.AllocsPerRun(1000, func() {
		jsp := e.trace.Start(e.workerLane(0), "job", ModeSolve.String()).Arg("job", 7)
		jsp.End()
	})
	if allocs != 0 {
		t.Errorf("nil tracer: %v allocs per job span, want 0", allocs)
	}
}

// BenchmarkUntracedJobSpan keeps the untraced inner-loop span sequence on
// the benchmark radar (run with -benchmem; allocs/op must stay 0).
func BenchmarkUntracedJobSpan(b *testing.B) {
	e := New(Config{Workers: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.trace.Start(e.workerLane(0), "job", ModeSolve.String()).Arg("job", int64(i)).End()
	}
}

// TestRepairJobAllocations pins what an engine repair job allocates
// through Worker.Do: a repair that inserts no shield allocates nothing.
// The worker copies the job's instance into its own before swapping in
// the engine's model, the repair writes its totals into the job's K, and
// it builds no report.
func TestRepairJobAllocations(t *testing.T) {
	jobs := makeJobs(1, ModeSolve)
	w := &newFor(1, jobs).pool[0]
	base := w.Do(jobs[0])
	if base.Err != nil {
		t.Fatalf("fixture solve: %v", base.Err)
	}
	tracks := len(base.Sol.Tracks)
	inst := *jobs[0].Inst
	inst.Rel = base.Rel
	job := Job{Inst: &inst, Mode: ModeRepair, Prev: base.Sol, K: base.K}
	if got := testing.AllocsPerRun(100, func() { w.Do(job) }); got != 0 {
		t.Errorf("repair job through Worker.Do: %v allocations, want 0", got)
	}
	if res := w.Do(job); res.Err != nil || &res.K[0] != &job.K[0] || res.Sol != base.Sol {
		t.Errorf("repair job did not repair in place into its totals: %+v", res)
	}
	if len(base.Sol.Tracks) != tracks {
		t.Fatalf("the fixture repair inserted %d shields, want none", len(base.Sol.Tracks)-tracks)
	}
}
