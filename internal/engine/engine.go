// Package engine is the concurrent region-solve engine: it shards
// independent SINO region instances across a bounded worker pool, solves
// them in parallel, and merges results deterministically.
//
// The paper's Phase II (SINO in every routing region) and the re-solves of
// Phase III refinement are embarrassingly parallel across region instances
// — no instance reads another's state. The engine exploits that while
// keeping parallel runs bit-identical to sequential ones:
//
//   - Results are returned positionally: Run's result slice index i is job
//     i's outcome, whatever order workers finished in.
//   - Each solver call is deterministic given its instance (the greedy
//     constructor is seedless; annealing callers pass explicit seeds), so
//     worker count cannot change any individual outcome.
//   - Every worker reads the one coupling model: a keff.Model is immutable
//     once built, so sharing it cannot change a bit.
//
// Beyond SINO instances, the engine runs arbitrary function jobs on the
// same bounded pool via RunTasks — Phase I's sharded iterative-deletion
// router drains its tile groups this way (see internal/route), so all
// three GSINO phases share one worker budget. An engine built without a
// model is only that task pool: Run and RunOn need Config.Model.
//
// The engine also owns the run counters the CLI tools report: instances
// solved, generic tasks executed, and tracks and shields in the returned
// solutions.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/keff"
	"repro/internal/obs"
	"repro/internal/sino"
)

// Mode selects which solver a job runs.
type Mode int

const (
	// ModeSolve runs the full SINO heuristic (sino.Solve) — Phase II and
	// the re-solves of Phase III pass 2.
	ModeSolve Mode = iota
	// ModeNetOrder runs the ordering-only baseline (sino.NetOrderOnly) —
	// the ID+NO flow.
	ModeNetOrder
	// ModeRepair improves an existing solution by shield insertion only
	// (sino.RepairWith) — Phase III pass 1's cheap re-solve. Job.Prev is
	// repaired in place, starting from its totals Job.K, and returned as
	// the result solution; the repaired totals are written back into
	// Job.K, which is the result's K. A repair builds no report.
	ModeRepair
)

func (m Mode) String() string {
	switch m {
	case ModeSolve:
		return "solve"
	case ModeNetOrder:
		return "net-order"
	case ModeRepair:
		return "repair"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Job is one region instance to solve. The engine overrides the instance's
// Model with its own; the job's other fields are used as-is. A job must
// not alias mutable state of any other job in the same Run call.
type Job struct {
	Inst *sino.Instance
	Mode Mode
	Prev *sino.Solution // ModeRepair only: the solution to improve in place
	K    []float64      // ModeRepair only: Prev's per-segment totals, the Result.K that produced it
}

// Result is one job's outcome. Sol and K are nil when Err is set.
type Result struct {
	Sol *sino.Solution
	// K holds Sol's per-segment totals in every mode: the report's totals
	// for a solve or a net-order, the job's K, repaired in place, for a
	// repair.
	K []float64
	// Rel is the sensitivity relation a solve or repair ran on: the job's
	// Inst.Rel, or the snapshot the worker took when that was nil. Later
	// jobs on the same segments may pass it as Inst.Rel; it is nil for
	// ModeNetOrder.
	Rel *keff.Relation
	Err error
}

// Config tunes a new engine.
type Config struct {
	// Workers bounds the pool; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int

	// Model is the coupling model every worker solves with. Run and RunOn
	// require it; without one the engine serves RunTasks only.
	Model *keff.Model

	// Trace, when enabled, records batch-, wave-, and job-level spans: one
	// span per Run/RunTasks/RunOn call on the engine's control lane, and
	// one span per job or task on the executing worker's lane, so the
	// exported trace shows exactly how work packed onto the pool. Tracing
	// is purely observational — it never changes a result byte — and a nil
	// tracer costs no allocations on the per-job path
	// (TestDisabledJobSpanZeroAlloc).
	Trace *obs.Tracer
}

// Stats are the engine's cumulative counters since construction.
type Stats struct {
	Workers int    // pool bound
	Jobs    uint64 // instances solved (all modes, Run and Worker.Do alike)
	Tasks   uint64 // generic tasks executed via RunTasks and RunOn
	Waves   uint64 // barrier batches executed via RunOn
	Errors  uint64 // jobs that returned an error
	Tracks  uint64 // total tracks across returned solutions
	Shields uint64 // total shield tracks across returned solutions

	// CacheHits and CacheMiss read zero: they counted the retired pair
	// table's lookups (keff.PairCache), and remain for the benchmark
	// harness's keff.hit_rate.
	CacheHits, CacheMiss uint64
}

// Sub returns the counters accumulated since an earlier snapshot.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Workers: s.Workers,
		Jobs:    s.Jobs - prev.Jobs,
		Tasks:   s.Tasks - prev.Tasks,
		Waves:   s.Waves - prev.Waves,
		Errors:  s.Errors - prev.Errors,
		Tracks:  s.Tracks - prev.Tracks,
		Shields: s.Shields - prev.Shields,
	}
}

// Engine is a reusable region-solve pool. Run calls are serialized (the
// parallelism lives inside a Run); an Engine may be shared by the phases of
// a flow, which keeps the workers' pooled evaluators warm across phases.
type Engine struct {
	workers int
	model   *keff.Model // nil without a model

	trace    *obs.Tracer
	ctlLane  obs.Lane   // batch-level spans (Run/RunTasks/RunOn calls)
	jobLanes []obs.Lane // per-worker job/task spans; nil when untraced

	runMu sync.Mutex // serializes Run calls
	pool  []Worker   // one per worker, reused across calls; nil without a model

	jobs    atomic.Uint64
	tasks   atomic.Uint64
	waves   atomic.Uint64
	errors  atomic.Uint64
	tracks  atomic.Uint64
	shields atomic.Uint64
}

// errNoModel is Run's and RunOn's error on an engine built without
// Config.Model.
var errNoModel = errors.New("engine: no model configured (Run and RunOn need Config.Model)")

// New builds an engine from cfg: with a Model, a region-solve pool with one
// pooled evaluator per worker; without one, a RunTasks pool.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: w, trace: cfg.Trace}
	if e.trace.Enabled() {
		e.ctlLane = e.trace.Lane("engine")
		e.jobLanes = make([]obs.Lane, w)
		for i := range e.jobLanes {
			e.jobLanes[i] = e.trace.Lane(fmt.Sprintf("engine worker %d", i))
		}
	}
	if cfg.Model == nil {
		return e
	}
	e.model = cfg.Model
	// Each worker's evaluator buffers persist across every Run and RunOn
	// batch it serves; slot w is touched by one drain goroutine per batch.
	e.pool = make([]Worker, w)
	for i := range e.pool {
		e.pool[i] = Worker{e: e, ev: sino.NewEval()}
	}
	return e
}

// workerLane returns worker w's trace lane (the main lane when untraced,
// where spans are inert anyway). Nil-slice check only — safe on hot paths.
func (e *Engine) workerLane(w int) obs.Lane {
	if e.jobLanes == nil {
		return 0
	}
	return e.jobLanes[w]
}

// EvalStats sums the pooled per-worker incremental evaluators' counters
// (binds, loads, edits, rollbacks, pair values — see sino.EvalStats). It
// acquires the run lock so the counters are read quiescent: call it
// between batches, not from inside a running task.
func (e *Engine) EvalStats() sino.EvalStats {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	var s sino.EvalStats
	for i := range e.pool {
		s = s.Add(e.pool[i].ev.Stats())
	}
	return s
}

// Stats returns a snapshot of the cumulative counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers: e.workers,
		Jobs:    e.jobs.Load(),
		Tasks:   e.tasks.Load(),
		Waves:   e.waves.Load(),
		Errors:  e.errors.Load(),
		Tracks:  e.tracks.Load(),
		Shields: e.shields.Load(),
	}
}

// drain is the pool's shared claim loop: up to e.workers goroutines claim
// indices 0..n-1 from an atomic counter and call body(worker, i); all of a
// goroutine's claims share its worker id, so per-worker resources (pooled
// evaluators, Worker contexts) can be indexed by it. drain
// is a barrier — it returns once every index has been claimed and its body
// returned. Run, RunTasks, and RunOn all execute on this loop; only their
// per-index bodies differ.
func (e *Engine) drain(n int, body func(worker, i int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				body(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// firstTaskError reports the first error in submission order, wrapped with
// its task index — the shared error contract of RunTasks and RunOn.
func firstTaskError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: task %d: %w", i, err)
		}
	}
	return nil
}

// Run solves every job and returns results positionally: results[i] is
// jobs[i]'s outcome. Per-job failures land in Result.Err and do not stop
// the batch; FirstError collects them. Run itself returns an error only
// when the engine has no model or ctx is cancelled; on cancellation,
// unstarted jobs carry ctx.Err() in their Result.Err.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	e.runMu.Lock()
	defer e.runMu.Unlock()

	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	if e.model == nil {
		return nil, errNoModel
	}

	// Size each worker's evaluator for the batch's largest instance once,
	// where a fresh evaluator would grow at each new largest instance.
	most := 0
	for i := range jobs {
		if jobs[i].Inst != nil && jobs[i].Mode != ModeNetOrder {
			most = max(most, len(jobs[i].Inst.Segs))
		}
	}
	for w := range min(e.workers, len(jobs)) {
		e.pool[w].ev.Reserve(most)
	}

	bsp := e.trace.Start(e.ctlLane, "engine", "solve batch").Arg("jobs", int64(len(jobs)))
	e.drain(len(jobs), func(w, i int) {
		if ctx.Err() != nil {
			results[i] = Result{Err: ctx.Err()} // drain remaining with the ctx error
			return
		}
		jsp := e.trace.Start(e.workerLane(w), "job", jobs[i].Mode.String()).Arg("job", int64(i))
		results[i] = e.solveJob(&jobs[i], &e.pool[w])
		jsp.End()
	})
	bsp.End()
	return results, ctx.Err()
}

// Worker is one pool worker's private solve context: its pooled
// incremental evaluator and the instance each job is copied into, with the
// engine's model swapped in. RunOn hands a Worker to each task it
// schedules; tasks solve instances through Do instead of calling Run (the
// pool is already held for the duration of the batch). A Worker must not
// be used from more than one goroutine at a time.
type Worker struct {
	e    *Engine
	ev   *sino.Eval
	inst sino.Instance
}

// Do solves one job with this worker's private resources — the single-job
// counterpart of Run for use inside RunOn tasks. It has Run's semantics
// exactly (model swap, panic conversion, counters), so a job solved
// through Do is bit-identical to the same job solved through Run.
func (w *Worker) Do(job Job) Result {
	return w.e.solveJob(&job, w)
}

// RunOn executes tasks on the bounded pool, handing each the executing
// worker's private context — the batch-with-barrier primitive behind
// Phase III's parallel refinement waves. Like RunTasks it is a barrier
// (it returns only after every task finished), converts task panics into
// errors, and reports the first task error in submission order; unlike
// RunTasks, each task receives a *Worker so an inner loop of many solver
// calls can reuse one set of pooled per-worker resources. Tasks must not
// mutate state shared with any other task in the same call.
func (e *Engine) RunOn(ctx context.Context, tasks []func(*Worker) error) error {
	e.runMu.Lock()
	defer e.runMu.Unlock()

	if len(tasks) == 0 {
		return ctx.Err()
	}
	if e.model == nil {
		return errNoModel
	}
	e.waves.Add(1)
	errs := make([]error, len(tasks))
	bsp := e.trace.Start(e.ctlLane, "engine", "wave").Arg("tasks", int64(len(tasks)))
	e.drain(len(tasks), func(w, i int) {
		if ctx.Err() != nil {
			return // drain remaining indices without running them
		}
		wk := &e.pool[w]
		tsp := e.trace.Start(e.workerLane(w), "wave", "wave task").Arg("task", int64(i))
		errs[i] = e.runTask(func() error { return tasks[i](wk) })
		tsp.End()
	})
	bsp.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstTaskError(errs)
}

// RunTasks executes arbitrary function jobs on the engine's bounded pool —
// the generic counterpart of Run for workloads that are not SINO instances
// (Phase I seeding chunks, shard drains, reconciliation drains). Tasks must
// not share mutable state with each other. RunTasks returns the first task
// error in submission order, or the context's error on cancellation
// (unstarted tasks are skipped); it implements route.Pool.
//
// Each task's span is named labels[i] (falling back to cat when labels is
// nil or empty at i) under category cat. Labels are display-only; callers
// should build them only when the tracer is enabled — a nil labels slice
// is the untraced fast path. Panics in a task are converted to errors,
// matching Run's contract that a poisoned work item cannot take down the
// pool.
func (e *Engine) RunTasks(ctx context.Context, cat string, labels []string, tasks []func() error) error {
	e.runMu.Lock()
	defer e.runMu.Unlock()

	if len(tasks) == 0 {
		return ctx.Err()
	}
	bsp := e.trace.Start(e.ctlLane, "engine", "task batch").Arg("tasks", int64(len(tasks)))
	errs := make([]error, len(tasks))
	e.drain(len(tasks), func(w, i int) {
		if ctx.Err() != nil {
			return // drain remaining indices without running them
		}
		name := cat
		if i < len(labels) && labels[i] != "" {
			name = labels[i]
		}
		tsp := e.trace.Start(e.workerLane(w), cat, name).Arg("task", int64(i))
		errs[i] = e.runTask(tasks[i])
		tsp.End()
	})
	bsp.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstTaskError(errs)
}

// runTask runs one generic task, converting panics into errors.
func (e *Engine) runTask(task func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: task panicked: %v", r)
		}
		e.tasks.Add(1)
		if err != nil {
			e.errors.Add(1)
		}
	}()
	return task()
}

// solveJob runs one job on worker w, converting solver panics (invalid
// instances) into per-job errors.
func (e *Engine) solveJob(job *Job, w *Worker) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("engine: %s job panicked: %v", job.Mode, r)}
		}
		e.jobs.Add(1)
		if res.Err != nil {
			e.errors.Add(1)
			return
		}
		e.tracks.Add(uint64(res.Sol.NumTracks()))
		e.shields.Add(uint64(res.Sol.NumShields()))
	}()
	if job.Inst == nil {
		return Result{Err: fmt.Errorf("engine: %s job has no instance", job.Mode)}
	}
	// Shallow copy into the worker's instance, so swapping in the engine's
	// model never races with the caller's view of the instance.
	w.inst = *job.Inst
	w.inst.Model = e.model
	inst, ev := &w.inst, w.ev

	switch job.Mode {
	case ModeSolve:
		sol, chk := sino.SolveWith(ev, inst)
		return Result{Sol: sol, K: chk.K, Rel: ev.Relation()}
	case ModeNetOrder:
		sol, chk := sino.NetOrderOnly(inst)
		return Result{Sol: sol, K: chk.K}
	case ModeRepair:
		if job.Prev == nil {
			return Result{Err: fmt.Errorf("engine: repair job has no previous solution")}
		}
		if len(job.K) != len(inst.Segs) {
			return Result{Err: fmt.Errorf("engine: repair job has %d totals for %d segments", len(job.K), len(inst.Segs))}
		}
		if err := sino.RepairWith(ev, inst, job.Prev, job.K); err != nil {
			return Result{Err: fmt.Errorf("engine: repair job: %w", err)}
		}
		return Result{Sol: job.Prev, K: job.K, Rel: ev.Relation()}
	default:
		return Result{Err: fmt.Errorf("engine: unknown mode %d", int(job.Mode))}
	}
}

// FirstError returns the first per-job error in results, or nil.
func FirstError(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("engine: job %d: %w", i, results[i].Err)
		}
	}
	return nil
}
