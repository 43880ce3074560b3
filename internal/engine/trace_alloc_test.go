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
