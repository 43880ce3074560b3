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
	var (
		last      refineStats
		refreshes int
	)
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
		last, refreshes = stats, tr.refreshes
	}
	b.ReportMetric(float64(last.Waves), "waves")
	b.ReportMetric(float64(last.resolves), "resolves")
	b.ReportMetric(float64(refreshes), "refreshes")
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
// incremental arm touches a wave-sized batch of nets, flushes the tracker
// and derives the next wave's graph from it (O(batch footprint) plus one
// O(nets) scan); the recompute arm is the full resweep (O(nets × terms))
// the tracker replaced, then the same derivation. The end-to-end pass1
// family buries this cost under solve time.
func benchRefineBarrier(b *testing.B, workers int, recompute bool) {
	_, st, _ := benchRefineState(b, workers)
	tr := st.newViolTracker()
	unfixable := make([]bool, len(st.terms))
	var waves [2][]conflictNode
	nodes := waveNodes(tr, unfixable, waves[0])
	waves[0] = nodes
	// A representative wave's mutation set: each batch net re-solved its
	// least-congested instance or two — touch one instance per violator.
	batch := make([]*regionInst, 0, 8)
	for _, nd := range nodes[:min(8, len(nodes))] {
		batch = append(batch, st.terms[nd.net][0].inst)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recompute {
			tr = st.newViolTracker()
		} else {
			for _, in := range batch {
				tr.touchInst(in)
			}
			tr.flush()
		}
		next := waveNodes(tr, unfixable, waves[(i+1)%2])
		waves[(i+1)%2] = next
		dropped, added := churn(nodes, next)
		churnSink += dropped + added
		nodes = next
	}
}

// churnSink keeps benchRefineBarrier's churn counts live.
var churnSink int

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
