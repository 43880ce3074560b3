package core

import (
	"context"
	"fmt"
	"testing"
)

// refineBenchWorkers are the pool sizes benchmarked: serial and a
// representative parallel bound.
var refineBenchWorkers = []int{1, 4}

// benchRefineState builds the shared fixture: a scaled ibm01 with real
// Phase II violations (scale 16, the barrier-cost acceptance fixture),
// plus a snapshot to restore between iterations so every pass run starts
// from the same state.
func benchRefineState(b *testing.B, workers int) (*Runner, *chipState, []instSnap) {
	r, st := ibmRefineFixture(b, 16, 0.5, 1, Params{Workers: workers})
	if len(st.violating()) == 0 {
		b.Fatal("bench fixture has no violations to repair")
	}
	return r, st, snapshotState(st)
}

// benchRefinePass1 measures pass 1 end to end.
func benchRefinePass1(b *testing.B, workers int) {
	_, st, snaps := benchRefineState(b, workers)
	var last refineStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restoreState(st, snaps)
		tr := st.newViolTracker()
		b.StartTimer()
		var stats refineStats
		if _, err := runPass1(context.Background(), st, tr, &stats); err != nil {
			b.Fatal(err)
		}
		last = stats
	}
	b.ReportMetric(float64(last.Waves), "waves")
	b.ReportMetric(float64(last.resolves), "resolves")
	b.ReportMetric(float64(last.Refreshed), "refreshes")
}

func benchRefinePass2(b *testing.B, workers int) {
	_, st, _ := benchRefineState(b, workers)
	tr := st.newViolTracker()
	var stats refineStats
	if _, err := runPass1(context.Background(), st, tr, &stats); err != nil {
		b.Fatal(err)
	}
	snaps := snapshotState(st) // pass 2 starts from the repaired state
	var last refineStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restoreState(st, snaps)
		tr = st.newViolTracker() // pass 2 mutates the tracker; resweep outside the timer
		b.StartTimer()
		var stats refineStats
		if err := st.refinePass2(context.Background(), tr, &stats); err != nil {
			b.Fatal(err)
		}
		last = stats
	}
	b.ReportMetric(float64(last.Relaxed), "relaxed")
}

// benchRefineBarrier isolates one wave barrier's bookkeeping — the cost
// pass1 pays between repair waves, with the solver out of the picture. The
// incremental arm touches a wave-sized batch of nets and flushes the
// tracker into the live graph (O(batch footprint)); the recompute arm is
// the full resweep plus graph rebuild (O(nets × terms)) the tracker
// replaced. The end-to-end pass1 family buries this cost under solve time.
func benchRefineBarrier(b *testing.B, workers int, recompute bool) {
	_, st, _ := benchRefineState(b, workers)
	tr := st.newViolTracker()
	unfixable := make(map[int]bool)
	g := newConflictGraph(st, tr, unfixable)
	// A representative wave's mutation set: each batch net re-solved its
	// least-congested instance or two — touch one instance per violator.
	viol := tr.violating()
	batch := make([]*regionInst, 0, 8)
	for _, net := range viol[:min(8, len(viol))] {
		batch = append(batch, st.terms[net][0].inst)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recompute {
			tr = st.newViolTracker()
			g = newConflictGraph(st, tr, unfixable)
		} else {
			for _, in := range batch {
				tr.touchInst(in)
			}
			g.update(tr, tr.flush())
		}
	}
}

func benchRefineBarrierBody(b *testing.B, workers int) { benchRefineBarrier(b, workers, false) }

func benchRefineBarrierRecompute(b *testing.B, workers int) { benchRefineBarrier(b, workers, true) }

// refineBenchFamilies maps BenchmarkRefine's family names to bodies.
var refineBenchFamilies = []struct {
	name string
	body func(b *testing.B, workers int)
}{
	{"pass1", benchRefinePass1},
	{"barrier", benchRefineBarrierBody},
	{"barrier-recompute", benchRefineBarrierRecompute},
	{"pass2", benchRefinePass2},
}

// BenchmarkRefine measures Phase III's two passes on the engine across
// worker counts. On a multi-core machine pass 1 scales with the wave
// widths (MaxWave concurrent net repairs) and pass 2 with the candidate
// count; on one core the parallel arm must cost no more than the serial
// one (the same contract the Phase I and Phase II benches pin).
func BenchmarkRefine(b *testing.B) {
	for _, fam := range refineBenchFamilies {
		for _, w := range refineBenchWorkers {
			fam, w := fam, w
			b.Run(fmt.Sprintf("%s/workers%d", fam.name, w), func(b *testing.B) {
				fam.body(b, w)
			})
		}
	}
}
