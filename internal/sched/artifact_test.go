package sched

import (
	"context"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/report"
)

// renderBatchWith mirrors renderBatch but threads an artifact store through
// the batch config.
func renderBatchWith(t *testing.T, cells []Cell, jobs, workers int, store *artifact.Store) string {
	t.Helper()
	results, err := Run(context.Background(), cells, Config{Jobs: jobs, Workers: workers, Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	set := report.NewSet()
	for _, r := range results {
		set.Add(r.Outcome)
	}
	var b strings.Builder
	for _, render := range []func(*strings.Builder) error{
		func(w *strings.Builder) error { return set.Table1(w) },
		func(w *strings.Builder) error { return set.Table2(w) },
		func(w *strings.Builder) error { return set.Table3(w) },
		func(w *strings.Builder) error { return set.Deltas(w) },
		func(w *strings.Builder) error { return set.CSV(w) },
	} {
		if err := render(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestBatchArtifactSharing is the batch half of the route-once contract: a
// shared store lets each design's three flows route at most twice, the
// per-key totals are schedule-invariant, and the rendered report is
// byte-identical to the store-less batch at every jobs setting.
func TestBatchArtifactSharing(t *testing.T) {
	cells := evalGrid(randomDesign(t, 60, 0.3, 5), randomDesign(t, 60, 0.5, 11))
	baseline := renderBatchWith(t, cells, 1, 1, nil)
	for _, jobs := range []int{1, 3} {
		store := artifact.NewStore(0)
		if got := renderBatchWith(t, cells, jobs, 4, store); got != baseline {
			t.Errorf("jobs=%d report with artifact store differs from store-less serial run", jobs)
		}
		s := store.Stats()
		// Two designs x (unshielded + shield-aware) = 4 misses; the other
		// 2 lookups hit whatever the schedule, by single-flight.
		if s.Misses != 4 || s.Hits != 2 {
			t.Errorf("jobs=%d: %d misses, %d hits; want 4 misses, 2 hits", jobs, s.Misses, s.Hits)
		}
	}
}

// TestCellPrivateStoreWins: a cell carrying its own Params.Artifacts keeps
// it instead of the batch store — mirroring the Cache and Workers
// precedence rules.
func TestCellPrivateStoreWins(t *testing.T) {
	d := randomDesign(t, 40, 0.3, 2)
	private := artifact.NewStore(0)
	shared := artifact.NewStore(0)
	cells := []Cell{
		{Design: d, Flow: core.FlowIDNO, Params: core.Params{Artifacts: private}},
		{Design: d, Flow: core.FlowIDNO},
	}
	results, err := Run(context.Background(), cells, Config{Jobs: 1, Artifacts: shared})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	ps, ss := private.Stats(), shared.Stats()
	if ps.Misses != 1 {
		t.Errorf("private store saw %d misses, want 1", ps.Misses)
	}
	if ss.Misses != 1 || ss.Hits != 0 {
		t.Errorf("shared store saw %d misses, %d hits; want 1 miss (cell 0 used its own store)", ss.Misses, ss.Hits)
	}
}

// TestBatchDiskWarmStart is the acceptance bar for the disk tier at the
// batch level: a second "process" (fresh store, same directory) renders a
// byte-identical report at every jobs x workers combination, without
// routing a single cell.
func TestBatchDiskWarmStart(t *testing.T) {
	dir := t.TempDir()
	cells := evalGrid(randomDesign(t, 60, 0.3, 5), randomDesign(t, 60, 0.5, 11))
	newStore := func() *artifact.Store {
		d, err := artifact.NewDiskStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return artifact.NewStore(0).WithDisk(d)
	}

	cold := newStore()
	baseline := renderBatchWith(t, cells, 1, 1, cold)
	if cs := cold.Stats(); cs.Disk.Writes == 0 {
		t.Fatalf("cold batch wrote nothing to disk: %+v", cs.Disk)
	}
	for _, jobs := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			warm := newStore()
			if got := renderBatchWith(t, cells, jobs, workers, warm); got != baseline {
				t.Errorf("jobs=%d workers=%d: warm-directory report differs from cold run", jobs, workers)
			}
			ws := warm.Stats()
			if ws.Misses != 0 {
				t.Errorf("jobs=%d workers=%d: warm batch routed %d cells", jobs, workers, ws.Misses)
			}
			if ws.Disk.Hits == 0 {
				t.Errorf("jobs=%d workers=%d: warm batch never hit disk: %+v", jobs, workers, ws.Disk)
			}
		}
	}
}
