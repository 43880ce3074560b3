package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceExportValid records a small span tree across several lanes and
// checks the exported JSON against the package's own validator: parses,
// spans and metadata counted, timestamps monotone, args preserved.
func TestTraceExportValid(t *testing.T) {
	tr := New()
	l1 := tr.Lane("worker 1")
	l2 := tr.Lane("worker 2")

	outer := tr.Start(0, "phase", "phase I: route").Arg("nets", 40)
	a := tr.Start(l1, "shard", "shard 0 (7 nets)").Arg("shard", 0)
	time.Sleep(time.Millisecond)
	a.End()
	b := tr.Start(l2, "shard", "shard 1 (5 nets)").Arg("shard", 1)
	b.End()
	outer.End()

	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := []byte(buf.String())
	st, err := ValidateTrace(data)
	if err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	if st.Complete != 3 {
		t.Errorf("Complete = %d, want 3", st.Complete)
	}
	// 1 process_name + (thread_name + thread_sort_index) per lane (main + 2).
	if want := 1 + 2*3; st.Meta != want {
		t.Errorf("Meta = %d, want %d", st.Meta, want)
	}
	if st.Lanes != 3 {
		t.Errorf("Lanes = %d, want 3", st.Lanes)
	}
	for _, span := range []string{"phase I: route", "shard 0", "shard 1"} {
		if !TraceHasSpan(data, span) {
			t.Errorf("trace is missing span %q", span)
		}
	}
	if TraceHasSpan(data, "no such span") {
		t.Error("TraceHasSpan matched a nonexistent name")
	}
	if !strings.Contains(buf.String(), `"nets":40`) {
		t.Error("span args were not exported")
	}
}

// TestDisabledSpanZeroAlloc is the package's core guarantee: starting,
// annotating, and ending a span on a nil tracer allocates nothing. The
// engine's inner loop relies on this (see the matching guard in
// internal/engine).
func TestDisabledSpanZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(0, "job", "solve").Arg("job", 7).Arg("tracks", 12)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil tracer: %v allocs per span, want 0", allocs)
	}
	if tr.Enabled() || tr.Lane("ghost") != 0 {
		t.Error("nil tracer reports recording or allocates a lane")
	}
}

// BenchmarkDisabledSpan keeps the zero-alloc span on the benchmark radar.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start(0, "job", "solve").Arg("job", int64(i)).End()
	}
}

// TestSpanArgOverflow: args beyond the inline bound are dropped silently,
// never panicking or allocating.
func TestSpanArgOverflow(t *testing.T) {
	tr := New()
	sp := tr.Start(0, "x", "many args")
	for i := 0; i < 2*maxSpanArgs; i++ {
		sp = sp.Arg("k", int64(i))
	}
	sp.End()
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace([]byte(buf.String())); err != nil {
		t.Fatal(err)
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines and checks
// the export is still valid — recording is a shared-buffer append under a
// mutex and must stay coherent.
func TestTracerConcurrent(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := tr.Lane("g")
			for i := 0; i < 100; i++ {
				tr.Start(lane, "t", "tick").Arg("i", int64(i)).End()
			}
		}(g)
	}
	wg.Wait()
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateTrace([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete != 800 {
		t.Errorf("Complete = %d, want 800", st.Complete)
	}
}
