package sched

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// benchCells builds the benchmark evaluation grid: two circuits × two
// rates × three flows on scaled IBM fixtures — the cmd/tables workload in
// miniature.
func benchCells(tb testing.TB) []Cell {
	return evalGrid(
		ibmDesign(tb, "ibm01", 0.3, 16),
		ibmDesign(tb, "ibm01", 0.5, 16),
		ibmDesign(tb, "ibm02", 0.3, 16),
		ibmDesign(tb, "ibm02", 0.5, 16),
	)
}

func runBatch(tb testing.TB, cells []Cell, jobs int) []Result {
	return runBatchStore(tb, cells, jobs, nil)
}

func runBatchStore(tb testing.TB, cells []Cell, jobs int, store *artifact.Store) []Result {
	results, err := Run(context.Background(), cells, Config{Jobs: jobs, Artifacts: store})
	if err != nil {
		tb.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		tb.Fatal(err)
	}
	return results
}

// BenchmarkBatch measures the full evaluation grid on the batch scheduler
// across jobs settings. jobs1 is the serial path; on a multi-core machine
// the higher settings should approach linear speedup (cells are
// independent).
func BenchmarkBatch(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	cells := benchCells(b)
	for _, jobs := range counts {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			var results []Result
			for i := 0; i < b.N; i++ {
				results = runBatch(b, cells, jobs)
			}
			b.ReportMetric(float64(len(results)), "cells")
		})
	}
}

// BenchmarkBatchArtifacts isolates the route-once artifact cache: the same
// serial evaluation grid with and without a shared store. Each cached
// iteration starts a fresh store, so the delta is pure intra-batch sharing
// — every circuit x rate routes twice (shield-aware and not) instead of
// three times, with outcomes byte-identical by the DESIGN.md §11 contract.
func BenchmarkBatchArtifacts(b *testing.B) {
	cells := benchCells(b)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runBatch(b, cells, 1)
		}
	})
	b.Run("cached", func(b *testing.B) {
		var stats artifact.Stats
		for i := 0; i < b.N; i++ {
			store := artifact.NewStore(0)
			runBatchStore(b, cells, 1, store)
			stats = store.Stats()
		}
		b.ReportMetric(float64(stats.Hits), "hits")
		b.ReportMetric(float64(stats.Misses), "misses")
	})
}

// benchECODelta is the representative edit the ECO benchmarks and smoke
// share: move one net, drop one, add one.
func benchECODelta() artifact.Delta {
	return artifact.Delta{
		Remove: []int{1},
		Move: []artifact.Move{{ID: 0, Pins: []netlist.Pin{
			{Loc: geom.MicronPoint{X: 120, Y: 80}},
			{Loc: geom.MicronPoint{X: 440, Y: 360}},
		}}},
		Add: []netlist.Net{{Pins: []netlist.Pin{
			{Loc: geom.MicronPoint{X: 60, Y: 60}},
			{Loc: geom.MicronPoint{X: 220, Y: 300}},
		}}},
	}
}

// runECO runs the three flows over delta applied to d, each on an ECO
// runner (core.NewECORunner) that resumes Phase I from store's warm base
// artifacts.
func runECO(tb testing.TB, d *core.Design, delta artifact.Delta, store *artifact.Store) {
	for _, f := range []core.Flow{core.FlowIDNO, core.FlowISINO, core.FlowGSINO} {
		r, err := core.NewECORunner(d, delta, core.Params{Artifacts: store})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := r.Run(f); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkECO measures incremental re-solve turnaround: the three flows
// on an edited ibm01 routed from scratch (fullrun) versus resumed from the
// base design's warm artifacts (resume). The base routing that warms the
// store is excluded from the timed region — it models the prior full run
// an ECO amortizes against.
func BenchmarkECO(b *testing.B) {
	d := ibmDesign(b, "ibm01", 0.3, 16)
	delta := benchECODelta()
	b.Run("fullrun", func(b *testing.B) {
		edited, err := delta.Apply(d.Nets)
		if err != nil {
			b.Fatal(err)
		}
		ed := &core.Design{Name: d.Name, Nets: edited, Grid: d.Grid, Rate: d.Rate}
		cells := evalGrid(ed)
		for i := 0; i < b.N; i++ {
			runBatch(b, cells, 1)
		}
	})
	b.Run("resume", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := artifact.NewStore(0)
			runBatchStore(b, evalGrid(d), 1, store) // warm base artifacts
			b.StartTimer()
			runECO(b, d, delta, store)
		}
	})
}
