// Package sched is the cross-chip batch scheduler: it runs whole flow
// cells — (design, flow, params) triples, the paper's circuits × rates ×
// flows evaluation grid — across a bounded process-level pool of runners,
// and streams outcomes back in deterministic cell order.
//
// Every cell is independent (no flow reads another's state), which makes
// the batch embarrassingly parallel one level above the region-solve
// engine: each cell gets its own core.Runner with a private engine, and the
// scheduler splits the machine's worker budget between the outer pool and
// each runner's inner engine. Cells share the artifact store (Config) and
// nothing else.
//
// Determinism contract: results are positional (results[i] is cells[i]'s
// outcome), OnResult fires in strict cell order whatever order cells
// finished in, and a batch's outcomes are bit-identical at every Jobs and
// Workers setting — the scheduler is purely a throughput knob, like the
// engine below it.
//
// A design may be shared by several cells (the evaluation grid runs three
// flows per generated circuit): flows treat Design, Grid, and Netlist as
// read-only, so concurrent cells can run off one copy.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
)

// Cell is one independent unit of the evaluation grid: one flow over one
// design under one parameter set.
type Cell struct {
	Design *core.Design
	Flow   core.Flow
	Params core.Params
}

// Result is one cell's outcome. Outcome is nil when Err is set. Results
// are delivered positionally and, through Config.OnResult, in strict cell
// order.
type Result struct {
	Index   int
	Outcome *core.Outcome
	Err     error

	// InnerWorkers is the engine worker count the scheduler assigned this
	// cell's runner (the per-cell share of Config.Workers).
	InnerWorkers int
}

// WarmHitRate reads 0: cells no longer share coupling state, so none
// starts warm on another's. It remains for the benchmark harness's
// sched.warm_hit_rate.
func (r Result) WarmHitRate() float64 { return 0 }

// Summary renders the one-line digest batch progress streams print per
// cell: the outcome's headline and phase split, then the cell position
// out of total and the inner worker share.
// Timings appear only here and in core.Outcome.Detail — never in the
// deterministic tables or CSV.
func (r Result) Summary(total int) string {
	o := r.Outcome
	if o == nil {
		return fmt.Sprintf("cell %d/%d failed: %v", r.Index+1, total, r.Err)
	}
	ms := time.Millisecond
	return fmt.Sprintf("ran %s %s @%.0f%% in %s (%d violations, %d route shards, %d solves, %d refine waves; route %s / order %s / refine %s) [cell %d/%d, %d workers]",
		o.Design, o.Flow, o.Rate*100, o.Runtime.Round(ms),
		o.Violations, o.Route.Shards, o.Engine.Jobs, o.Refine.Waves,
		o.Phases.Route.Round(ms), o.Phases.Order.Round(ms), o.Phases.Refine.Round(ms),
		r.Index+1, total, r.InnerWorkers)
}

// Config tunes a batch run.
type Config struct {
	// Jobs bounds how many cells run concurrently; <= 0 selects one per
	// CPU. Outcomes are bit-identical at every setting.
	Jobs int

	// Workers is the total engine-worker budget, split evenly across the
	// concurrent cells: each runner's inner engine gets
	// max(1, Workers/Jobs) workers (a cell whose Params.Workers is already
	// positive keeps its explicit setting). <= 0 selects one per CPU.
	Workers int

	// OnStart, when non-nil, is called as each cell begins running, with
	// the number of cells then in flight. Calls arrive in scheduling
	// order — concurrent and nondeterministic — so this is for live
	// progress counters only. Must be safe for concurrent use.
	OnStart func(index, inFlight int)

	// OnResult, when non-nil, is called exactly once per cell in strict
	// cell order (cell i's result is never delivered before cell i-1's),
	// whatever order cells finished in. Calls are serialized.
	OnResult func(Result)

	// Artifacts, when non-nil, is the shared routing-artifact store every
	// cell's runner consults (core.Params.Artifacts): cells of one design
	// and routing configuration route Phase I once and share the sealed
	// result — a three-flow cell triple performs at most two routes. A
	// cell whose Params.Artifacts is already set keeps its own store.
	// Sharing never changes a result byte (the DESIGN.md §11 contract);
	// nil leaves caching off. A store layered over a DiskStore
	// (artifact.Store.WithDisk) extends the sharing across process
	// boundaries: a warm cache directory makes the whole batch route-free,
	// still byte-identical at any Jobs/Workers setting.
	Artifacts *artifact.Store

	// Trace, when enabled, records the batch's cell lifecycle as spans —
	// one lane per outer runner, one span per cell, with the cell's flow
	// and phase spans nested under it (the scheduler hands each runner's
	// lane down through core.Params.TraceLane). Observational only: batch
	// outcomes are byte-identical with tracing on, off, or nil.
	Trace *obs.Tracer
}

// Run executes every cell and returns results positionally: results[i] is
// cells[i]'s outcome. Per-cell failures land in Result.Err and do not stop
// the batch; FirstError collects them. Run itself returns an error only
// when ctx is cancelled, in which case unstarted cells carry ctx.Err().
func Run(ctx context.Context, cells []Cell, cfg Config) ([]Result, error) {
	results := make([]Result, len(cells))
	if len(cells) == 0 {
		return results, ctx.Err()
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(cells) {
		jobs = len(cells)
	}
	totalWorkers := cfg.Workers
	if totalWorkers <= 0 {
		totalWorkers = runtime.GOMAXPROCS(0)
	}
	inner := splitWorkers(totalWorkers, jobs)

	lanes := make([]obs.Lane, jobs)
	if cfg.Trace.Enabled() {
		for w := range lanes {
			lanes[w] = cfg.Trace.Lane(fmt.Sprintf("sched runner %d", w))
		}
	}

	em := &emitter{results: results, ready: make([]bool, len(cells)), fn: cfg.OnResult}
	var (
		next     atomic.Int64
		inFlight atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(lane obs.Lane) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				if ctx.Err() != nil {
					results[i] = Result{Index: i, Err: ctx.Err()}
					em.done(i)
					continue
				}
				if cfg.OnStart != nil {
					cfg.OnStart(i, int(inFlight.Add(1)))
				} else {
					inFlight.Add(1)
				}
				var name string
				if cfg.Trace.Enabled() {
					if cells[i].Design != nil {
						name = fmt.Sprintf("cell %d: %s %s", i, cells[i].Design.Name, cells[i].Flow)
					} else {
						name = fmt.Sprintf("cell %d", i)
					}
				}
				csp := cfg.Trace.Start(lane, "sched", name).Arg("cell", int64(i))
				results[i] = runCell(ctx, i, cells[i], cfg.Artifacts, inner, cfg.Trace, lane)
				csp.End()
				inFlight.Add(-1)
				em.done(i)
			}
		}(lanes[w])
	}
	wg.Wait()
	return results, ctx.Err()
}

// splitWorkers divides the total engine-worker budget across concurrent
// cells; every runner gets at least one worker.
func splitWorkers(total, jobs int) int {
	if jobs < 1 {
		jobs = 1
	}
	if total < jobs {
		return 1
	}
	return total / jobs
}

// runCell executes one cell on its own runner, wiring in the shared
// artifact store, the split worker budget, and the runner's trace lane (so
// the cell's flow spans nest under its cell span). A cell that sets any of
// these in its Params keeps its own.
func runCell(ctx context.Context, i int, c Cell, artifacts *artifact.Store, workers int, trace *obs.Tracer, lane obs.Lane) Result {
	r := Result{Index: i}
	if c.Design == nil {
		r.Err = fmt.Errorf("sched: cell %d has no design", i)
		return r
	}
	p := c.Params
	if p.Artifacts == nil {
		p.Artifacts = artifacts
	}
	if p.Trace == nil {
		p.Trace = trace
		p.TraceLane = lane
	}
	if p.Workers <= 0 { // non-positive means auto, matching engine semantics
		p.Workers = workers
	}
	r.InnerWorkers = p.Workers
	runner, err := core.NewRunner(c.Design, p)
	if err != nil {
		r.Err = fmt.Errorf("sched: cell %d: %w", i, err)
		return r
	}
	out, err := runner.RunContext(ctx, c.Flow)
	if err != nil {
		r.Err = fmt.Errorf("sched: cell %d: %w", i, err)
		return r
	}
	r.Outcome = out
	return r
}

// emitter delivers results through OnResult in strict cell order: a
// finished cell is held back until every earlier cell has been delivered.
type emitter struct {
	mu      sync.Mutex
	results []Result
	ready   []bool
	next    int
	fn      func(Result)
}

func (e *emitter) done(i int) {
	if e.fn == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ready[i] = true
	for e.next < len(e.ready) && e.ready[e.next] {
		e.fn(e.results[e.next])
		e.next++
	}
}

// FirstError returns the first per-cell error in results, or nil.
func FirstError(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}
