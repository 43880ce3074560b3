package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ibm"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/route"
)

// randomDesign builds a compact random design, mirroring the core test
// fixtures.
func randomDesign(tb testing.TB, nNets int, rate float64, seed int64) *core.Design {
	tb.Helper()
	g, err := grid.New(8, 8, 100, 100, 14, 14)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	clamp := func(v float64) geom.Micron {
		if v < 0 {
			v = 0
		}
		if v > 799 {
			v = 799
		}
		return geom.Micron(v)
	}
	nets := make([]netlist.Net, nNets)
	for i := range nets {
		np := 2 + rng.Intn(3)
		pins := make([]netlist.Pin, np)
		cx, cy := rng.Float64()*800, rng.Float64()*800
		for j := range pins {
			pins[j] = netlist.Pin{Loc: geom.MicronPoint{
				X: clamp(cx + rng.NormFloat64()*150),
				Y: clamp(cy + rng.NormFloat64()*150),
			}}
		}
		nets[i] = netlist.Net{ID: i, Pins: pins}
	}
	return &core.Design{
		Name: "sched-rand",
		Nets: &netlist.Netlist{Nets: nets, Sensitivity: netlist.NewHashSensitivity(uint64(seed), rate)},
		Grid: g,
		Rate: rate,
	}
}

// ibmDesign generates a scaled IBM circuit — the full-chip path with real
// Phase III refinement pressure.
func ibmDesign(tb testing.TB, name string, rate float64, scale int) *core.Design {
	tb.Helper()
	profile, err := ibm.ProfileByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: scale, SensRate: rate})
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Design{Name: profile.Name, Nets: ckt.Nets, Grid: ckt.Grid, Rate: rate}
}

// evalGrid builds the evaluation-grid cell list over the given designs:
// three flows per design, in (design, flow) order — the same shape
// cmd/tables schedules.
func evalGrid(designs ...*core.Design) []Cell {
	var cells []Cell
	for _, d := range designs {
		for _, f := range []core.Flow{core.FlowIDNO, core.FlowISINO, core.FlowGSINO} {
			cells = append(cells, Cell{Design: d, Flow: f})
		}
	}
	return cells
}

// renderBatch runs the cells at the given jobs/workers setting and renders
// the full report — all four tables plus CSV — from the outcomes.
func renderBatch(t *testing.T, cells []Cell, jobs, workers int) string {
	t.Helper()
	results, err := Run(context.Background(), cells, Config{Jobs: jobs, Workers: workers})
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
	if err := set.Table1(&b); err != nil {
		t.Fatal(err)
	}
	if err := set.Table2(&b); err != nil {
		t.Fatal(err)
	}
	if err := set.Table3(&b); err != nil {
		t.Fatal(err)
	}
	if err := set.Deltas(&b); err != nil {
		t.Fatal(err)
	}
	if err := set.CSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestBatchDeterminism is the scheduler's half of the acceptance contract:
// batched output — all four tables plus CSV bytes — is identical for
// jobs ∈ {1, 4, 8}, with the worker budget splitting differently at each
// setting. The ibm design runs the full-chip path where scheduling-order
// bugs would surface.
func TestBatchDeterminism(t *testing.T) {
	cells := evalGrid(
		randomDesign(t, 70, 0.3, 5),
		randomDesign(t, 70, 0.5, 11),
		ibmDesign(t, "ibm01", 0.5, 16),
	)
	serial := renderBatch(t, cells, 1, 1)
	for _, jobs := range []int{4, 8} {
		if got := renderBatch(t, cells, jobs, 8); got != serial {
			t.Errorf("jobs=%d report differs from serial:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s", jobs, serial, jobs, got)
		}
	}
}

// TestResultStreamingOrder pins OnResult's contract: strict cell order,
// exactly once per cell, however many cells run concurrently.
func TestResultStreamingOrder(t *testing.T) {
	cells := evalGrid(randomDesign(t, 50, 0.4, 7), randomDesign(t, 50, 0.4, 9))
	var mu sync.Mutex
	var order []int
	starts := 0
	results, err := Run(context.Background(), cells, Config{
		Jobs: 4,
		OnStart: func(index, inFlight int) {
			mu.Lock()
			starts++
			if inFlight < 1 || inFlight > 4 {
				t.Errorf("inFlight = %d with 4 jobs", inFlight)
			}
			mu.Unlock()
		},
		OnResult: func(r Result) {
			order = append(order, r.Index) // serialized by contract
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if starts != len(cells) {
		t.Errorf("OnStart fired %d times, want %d", starts, len(cells))
	}
	if len(order) != len(cells) {
		t.Fatalf("OnResult fired %d times, want %d", len(order), len(cells))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("OnResult order %v: position %d has cell %d", order, i, idx)
		}
	}
	for i, r := range results {
		if r.Index != i || r.Outcome == nil {
			t.Errorf("results[%d] = {Index: %d, Outcome: %v}", i, r.Index, r.Outcome)
		}
	}
}

// TestPerCellErrors: a failing cell must not stop the batch, and its error
// must carry the cell index.
func TestPerCellErrors(t *testing.T) {
	good := randomDesign(t, 40, 0.3, 2)
	cells := []Cell{
		{Design: good, Flow: core.FlowIDNO},
		{Design: nil, Flow: core.FlowIDNO},                     // no design
		{Design: good, Flow: core.Flow("bogus")},               // unknown flow
		{Design: &core.Design{Name: "x"}, Flow: core.FlowIDNO}, // incomplete design
		{Design: good, Flow: core.FlowGSINO},
	}
	results, err := Run(context.Background(), cells, Config{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, wantErr := range []bool{false, true, true, true, false} {
		if (results[i].Err != nil) != wantErr {
			t.Errorf("cell %d: err = %v, want error: %v", i, results[i].Err, wantErr)
		}
	}
	if err := FirstError(results); err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Errorf("FirstError = %v, want cell 1's", err)
	}
}

// TestCancelledContext: a cancelled batch reports the context error and
// marks unstarted cells with it.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := evalGrid(randomDesign(t, 40, 0.3, 2))
	results, err := Run(ctx, cells, Config{Jobs: 2})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("cell %d carries no error after cancellation", i)
		}
	}
}

// TestSplitWorkers pins the worker-budget split: every runner gets at least
// one worker, and the budget divides evenly across concurrent cells.
func TestSplitWorkers(t *testing.T) {
	cases := []struct{ total, jobs, want int }{
		{8, 1, 8},
		{8, 2, 4},
		{8, 3, 2},
		{8, 8, 1},
		{2, 8, 1},
		{1, 1, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := splitWorkers(c.total, c.jobs); got != c.want {
			t.Errorf("splitWorkers(%d, %d) = %d, want %d", c.total, c.jobs, got, c.want)
		}
	}
}

// TestExplicitCellWorkersRespected: a cell carrying its own Params.Workers
// keeps it instead of the scheduler's split.
func TestExplicitCellWorkersRespected(t *testing.T) {
	d := randomDesign(t, 40, 0.3, 2)
	cells := []Cell{
		{Design: d, Flow: core.FlowIDNO, Params: core.Params{Workers: 3}},
		{Design: d, Flow: core.FlowIDNO},
	}
	results, err := Run(context.Background(), cells, Config{Jobs: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if results[0].InnerWorkers != 3 {
		t.Errorf("explicit cell got %d workers, want its own 3", results[0].InnerWorkers)
	}
	if results[1].InnerWorkers != 4 {
		t.Errorf("default cell got %d workers, want split 4", results[1].InnerWorkers)
	}
}

// TestEmptyBatch: no cells is a no-op, not a hang.
func TestEmptyBatch(t *testing.T) {
	results, err := Run(context.Background(), nil, Config{})
	if err != nil || len(results) != 0 {
		t.Errorf("empty batch: results=%v err=%v", results, err)
	}
}

// TestBatchTrace runs a small batch with tracing enabled and checks the
// cell lifecycle shows up: one "cell i: design flow" span per cell, with
// each cell's flow span recorded (the scheduler hands its runner lane to
// core through Params.TraceLane), and the export validates.
func TestBatchTrace(t *testing.T) {
	d := randomDesign(t, 40, 0.3, 7)
	cells := evalGrid(d)
	tr := obs.New()
	results, err := Run(context.Background(), cells, Config{Jobs: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := []byte(buf.String())
	if _, err := obs.ValidateTrace(data); err != nil {
		t.Fatalf("batch trace fails validation: %v", err)
	}
	for i, c := range cells {
		want := fmt.Sprintf("cell %d: %s %s", i, c.Design.Name, c.Flow)
		if !obs.TraceHasSpan(data, want) {
			t.Errorf("trace is missing cell span %q", want)
		}
		if !obs.TraceHasSpan(data, "flow "+string(c.Flow)) {
			t.Errorf("trace is missing flow span for %s", c.Flow)
		}
	}

	// Result.Summary layers the batch context onto the outcome's numbers.
	sum := results[2].Summary(len(cells))
	for _, want := range []string{
		fmt.Sprintf("ran %s %s @30%% in ", d.Name, cells[2].Flow),
		fmt.Sprintf(" [cell 3/%d, %d workers]", len(cells), results[2].InnerWorkers),
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q in %q", want, sum)
		}
	}
}

// TestResultSummary pins the per-cell stderr line: the outcome's headline
// numbers and phase split, then the cell position and worker share; a
// failed cell reports its error instead.
func TestResultSummary(t *testing.T) {
	ms := time.Millisecond
	r := Result{
		Index: 2, InnerWorkers: 2,
		Outcome: &core.Outcome{
			Design: "ibm01", Flow: core.FlowGSINO, Rate: 0.3, Violations: 2,
			Runtime: 37 * ms,
			Phases:  obs.PhaseTimes{Route: 13 * ms, Order: 17 * ms, Refine: 4 * ms},
			Engine:  engine.Stats{Jobs: 344},
			Route:   route.RunStats{Shards: 40},
			Refine:  core.RefineStats{Waves: 6},
		},
	}
	want := "ran ibm01 GSINO @30% in 37ms (2 violations, 40 route shards, 344 solves, 6 refine waves; route 13ms / order 17ms / refine 4ms) [cell 3/36, 2 workers]"
	if got := r.Summary(36); got != want {
		t.Errorf("Summary =\n%s\nwant\n%s", got, want)
	}
	r.Outcome, r.Err = nil, errors.New("boom")
	if got := r.Summary(36); got != "cell 3/36 failed: boom" {
		t.Errorf("failed-cell Summary = %q", got)
	}
}
