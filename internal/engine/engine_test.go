package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/keff"
	"repro/internal/netlist"
	"repro/internal/sino"
	"repro/internal/tech"
)

// makeJobs builds n solve jobs with varying sizes and bounds, sharing one
// model and sensitivity relation, like a Phase II batch.
func makeJobs(n int, mode Mode) []Job {
	model := keff.NewModel(tech.Default())
	sens := netlist.NewHashSensitivity(7, 0.4)
	jobs := make([]Job, n)
	for i := range jobs {
		size := 4 + (i*7)%24
		segs := make([]sino.Seg, size)
		for s := range segs {
			segs[s] = sino.Seg{Net: (i*31 + s) % 200, Kth: 0.3 + 0.05*float64(s%8), Rate: 0.4}
		}
		jobs[i] = Job{
			Inst: &sino.Instance{Segs: segs, Sensitive: sens.Sensitive, Model: model},
			Mode: mode,
		}
	}
	return jobs
}

// newFor builds an engine over the model the jobs share.
func newFor(workers int, jobs []Job) *Engine {
	return New(Config{Workers: workers, Model: jobs[0].Inst.Model})
}

// solutionsEqual compares two results track by track.
func solutionsEqual(a, b Result) bool {
	if (a.Err != nil) != (b.Err != nil) {
		return false
	}
	if a.Err != nil {
		return true
	}
	if len(a.Sol.Tracks) != len(b.Sol.Tracks) {
		return false
	}
	for i := range a.Sol.Tracks {
		if a.Sol.Tracks[i] != b.Sol.Tracks[i] {
			return false
		}
	}
	if len(a.K) != len(b.K) {
		return false
	}
	for i := range a.K {
		if a.K[i] != b.K[i] {
			return false
		}
	}
	return true
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, mode := range []Mode{ModeSolve, ModeNetOrder} {
		t.Run(mode.String(), func(t *testing.T) {
			jobs := makeJobs(40, mode)
			seq, err := newFor(1, jobs).Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				jobs := makeJobs(40, mode)
				par, err := newFor(workers, jobs).Run(context.Background(), jobs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range seq {
					if !solutionsEqual(seq[i], par[i]) {
						t.Errorf("workers=%d: job %d diverged from sequential", workers, i)
					}
				}
			}
		})
	}
}

func TestRepairMode(t *testing.T) {
	jobs := makeJobs(10, ModeSolve)
	base, err := newFor(4, jobs).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	repairs := make([]Job, len(jobs))
	for i := range jobs {
		// Tighten one bound, then repair the existing solution in place.
		segs := append([]sino.Seg(nil), jobs[i].Inst.Segs...)
		segs[0].Kth = 0.1
		repairs[i] = Job{
			Inst: &sino.Instance{Segs: segs, Sensitive: jobs[i].Inst.Sensitive, Model: jobs[i].Inst.Model},
			Mode: ModeRepair,
			Prev: base[i].Sol,
			K:    base[i].K,
		}
	}
	res, err := newFor(4, repairs).Run(context.Background(), repairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("repair job %d: %v", i, res[i].Err)
		}
		if res[i].Sol != base[i].Sol {
			t.Errorf("repair job %d did not repair in place", i)
		}
		if &res[i].K[0] != &repairs[i].K[0] || len(res[i].K) != len(repairs[i].Inst.Segs) {
			t.Errorf("repair job %d: K has %d entries, want the job's %d totals repaired in place",
				i, len(res[i].K), len(repairs[i].Inst.Segs))
		}
	}
}

// TestRepairJobNeedsTotals pins the repair job's totals contract: a
// repair with no totals, or totals for another segment count, is refused
// with an error of its own before the solver runs, not by a recovered
// panic, and leaves the solution untouched.
func TestRepairJobNeedsTotals(t *testing.T) {
	jobs := makeJobs(2, ModeSolve)
	base, err := newFor(2, jobs).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(base); err != nil {
		t.Fatal(err)
	}
	k := base[0].K
	for _, c := range []struct {
		name string
		k    []float64
	}{
		{"missing", nil},
		{"short", k[:len(k)-1]},
		{"too long", append(append([]float64(nil), k...), 0)},
	} {
		prev := &sino.Solution{Tracks: append([]int(nil), base[0].Sol.Tracks...)}
		e := newFor(2, jobs)
		res, err := e.Run(context.Background(), []Job{{Inst: jobs[0].Inst, Mode: ModeRepair, Prev: prev, K: c.k}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err == nil {
			t.Errorf("%s totals: repair job accepted", c.name)
			continue
		}
		if strings.Contains(res[0].Err.Error(), "panicked") {
			t.Errorf("%s totals: refused by a panic: %v", c.name, res[0].Err)
		}
		if !solutionsEqual(Result{Sol: prev, K: base[0].K}, base[0]) {
			t.Errorf("%s totals: refused repair modified the solution", c.name)
		}
		if st := e.Stats(); st.Jobs != 1 || st.Errors != 1 {
			t.Errorf("%s totals: stats %+v, want 1 job and 1 error", c.name, st)
		}
	}
}

// TestRepairJobRejectsInvalidSolution: a repair of a structurally invalid
// solution (a segment repeated, another missing) is a job error from the
// repair itself, not a recovered panic, and leaves the solution and its
// totals untouched.
func TestRepairJobRejectsInvalidSolution(t *testing.T) {
	jobs := makeJobs(1, ModeSolve)
	base, err := newFor(1, jobs).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(base); err != nil {
		t.Fatal(err)
	}
	tracks := append([]int(nil), base[0].Sol.Tracks...)
	for i, v := range tracks {
		if v != sino.Shield && v != 0 {
			tracks[i] = 0 // segment 0 twice, segment v never
			break
		}
	}
	prev := &sino.Solution{Tracks: append([]int(nil), tracks...)}
	k := append([]float64(nil), base[0].K...)
	res, err := newFor(1, jobs).Run(context.Background(), []Job{{Inst: jobs[0].Inst, Mode: ModeRepair, Prev: prev, K: k}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || strings.Contains(res[0].Err.Error(), "panicked") {
		t.Fatalf("invalid solution: repair job error %v, want the repair's own", res[0].Err)
	}
	if !reflect.DeepEqual(prev.Tracks, tracks) || !reflect.DeepEqual(k, base[0].K) {
		t.Fatal("a refused repair modified the solution or its totals")
	}
}

func TestPerJobErrorPropagation(t *testing.T) {
	jobs := makeJobs(6, ModeSolve)
	jobs[2].Inst.Segs[0].Kth = -1                       // sino.Solve panics on invalid instances
	jobs[4] = Job{Mode: ModeRepair, Inst: jobs[4].Inst} // missing Prev
	res, err := newFor(3, jobs).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		wantErr := i == 2 || i == 4
		if (r.Err != nil) != wantErr {
			t.Errorf("job %d: err = %v, want error: %v", i, r.Err, wantErr)
		}
	}
	if FirstError(res) == nil {
		t.Error("FirstError missed the failures")
	}
	if e := FirstError(nil); e != nil {
		t.Errorf("FirstError(nil) = %v", e)
	}

	// Under a configured model, a leading job with no instance fails alone.
	jobs = makeJobs(3, ModeSolve)
	e := New(Config{Workers: 2, Model: jobs[1].Inst.Model})
	jobs[0] = Job{Mode: ModeSolve}
	res, err = e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if (r.Err != nil) != (i == 0) {
			t.Errorf("instance-less first job: job %d err = %v", i, r.Err)
		}
	}

	// Without Config.Model, Run fails as a whole — even when the jobs
	// carry models, and even when the first has no instance at all.
	for _, jobs := range [][]Job{makeJobs(3, ModeSolve), {{Mode: ModeSolve}}} {
		if _, err := New(Config{Workers: 2}).Run(context.Background(), jobs); !errors.Is(err, errNoModel) {
			t.Errorf("Run without a model: err = %v, want %v", err, errNoModel)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before submission
	jobs := makeJobs(20, ModeSolve)
	res, err := newFor(2, jobs).Run(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	cancelled := 0
	for _, r := range res {
		if r.Err != nil {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job carries the cancellation error")
	}
}

func TestStats(t *testing.T) {
	jobs := makeJobs(15, ModeSolve)
	e := newFor(4, jobs)
	res, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ferr := FirstError(res); ferr != nil {
		t.Fatal(ferr)
	}
	st := e.Stats()
	if st.Jobs != 15 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 15 jobs, 0 errors", st)
	}
	var tracks uint64
	for _, r := range res {
		tracks += uint64(r.Sol.NumTracks())
	}
	if st.Tracks != tracks {
		t.Errorf("stats tracks = %d, want %d", st.Tracks, tracks)
	}

	// A second run accumulates; Sub isolates the delta.
	if _, err := e.Run(context.Background(), makeJobs(5, ModeSolve)); err != nil {
		t.Fatal(err)
	}
	delta := e.Stats().Sub(st)
	if delta.Jobs != 5 {
		t.Errorf("delta jobs = %d, want 5", delta.Jobs)
	}
}

// TestCacheIsolationBetweenEngines: engines share one coupling model, as
// they once shared a pair cache, and nothing else. Two engines on one
// model running at once return what each returns alone, and neither
// reports the other's work.
func TestCacheIsolationBetweenEngines(t *testing.T) {
	jobs := makeJobs(8, ModeSolve)
	model := jobs[0].Inst.Model
	want, err := New(Config{Workers: 1, Model: model}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{New(Config{Workers: 2, Model: model}), New(Config{Workers: 2, Model: model})}
	got := make([][]Result, len(engines))
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = e.Run(context.Background(), makeJobs(8, ModeSolve))
		}()
	}
	wg.Wait()
	for i, e := range engines {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		for j := range want {
			if !reflect.DeepEqual(got[i][j].Sol, want[j].Sol) || !reflect.DeepEqual(got[i][j].K, want[j].K) {
				t.Fatalf("engine %d job %d differs from a lone engine's solve", i, j)
			}
		}
		if st := e.Stats(); st.Jobs != 8 {
			t.Errorf("engine %d reports %d jobs, want its own 8", i, st.Jobs)
		}
	}
}

func TestEmptyRun(t *testing.T) {
	res, err := New(Config{Workers: 4}).Run(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty run: res=%v err=%v", res, err)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeSolve: "solve", ModeNetOrder: "net-order", ModeRepair: "repair", Mode(9): "mode(9)"} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func ExampleEngine() {
	model := keff.NewModel(tech.Default())
	sens := netlist.NewHashSensitivity(1, 0.5)
	segs := make([]sino.Seg, 8)
	for i := range segs {
		segs[i] = sino.Seg{Net: i, Kth: 0.6, Rate: 0.5}
	}
	e := New(Config{Workers: 4, Model: model})
	res, _ := e.Run(context.Background(), []Job{
		{Inst: &sino.Instance{Segs: segs, Sensitive: sens.Sensitive, Model: model}, Mode: ModeSolve},
	})
	over := 0
	for i, k := range res[0].K {
		if k > segs[i].Kth {
			over++
		}
	}
	fmt.Println("segments over their bound:", over)
	// Output: segments over their bound: 0
}

func TestRunTasks(t *testing.T) {
	e := New(Config{Workers: 4})
	var counter atomic.Int64
	tasks := make([]func() error, 50)
	for i := range tasks {
		tasks[i] = func() error { counter.Add(1); return nil }
	}
	if err := e.RunTasks(context.Background(), "task", nil, tasks); err != nil {
		t.Fatal(err)
	}
	if counter.Load() != 50 {
		t.Errorf("ran %d tasks, want 50", counter.Load())
	}
	if st := e.Stats(); st.Tasks != 50 {
		t.Errorf("Stats.Tasks = %d, want 50", st.Tasks)
	}
}

func TestRunTasksFirstErrorInSubmissionOrder(t *testing.T) {
	e := New(Config{Workers: 4})
	tasks := []func() error{
		func() error { return nil },
		func() error { return errors.New("boom-1") },
		func() error { return errors.New("boom-2") },
	}
	err := e.RunTasks(context.Background(), "task", nil, tasks)
	if err == nil || !strings.Contains(err.Error(), "task 1") || !strings.Contains(err.Error(), "boom-1") {
		t.Errorf("err = %v, want task 1 boom-1", err)
	}
	if st := e.Stats(); st.Errors != 2 {
		t.Errorf("Stats.Errors = %d, want 2", st.Errors)
	}
}

func TestRunTasksPanicBecomesError(t *testing.T) {
	e := New(Config{Workers: 2})
	err := e.RunTasks(context.Background(), "task", nil, []func() error{
		func() error { panic("poisoned") },
	})
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Errorf("err = %v, want panic converted", err)
	}
}

func TestRunOnMatchesRun(t *testing.T) {
	// A job solved through a RunOn worker's Do must be bit-identical to the
	// same job solved through Run — Phase III's parallel refinement relies
	// on this to keep the wave schedule worker-invariant.
	jobs := makeJobs(20, ModeSolve)
	want, err := newFor(4, jobs).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		e := New(Config{Workers: workers, Model: jobs[0].Inst.Model})
		got := make([]Result, len(jobs))
		tasks := make([]func(*Worker) error, len(jobs))
		for i := range jobs {
			i := i
			tasks[i] = func(w *Worker) error {
				got[i] = w.Do(jobs[i])
				return got[i].Err
			}
		}
		if err := e.RunOn(context.Background(), tasks); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !solutionsEqual(want[i], got[i]) {
				t.Errorf("workers=%d: task %d diverged from Run", workers, i)
			}
		}
		st := e.Stats()
		if st.Waves != 1 || st.Tasks != uint64(len(jobs)) || st.Jobs != uint64(len(jobs)) {
			t.Errorf("workers=%d: stats = %+v, want 1 wave, %d tasks, %d jobs", workers, st, len(jobs), len(jobs))
		}
	}
}

func TestNewWorkerMatchesRun(t *testing.T) {
	// One task solving every job in turn reuses a single worker's model
	// clone and pooled evaluator across solves — still bit-identical.
	jobs := makeJobs(8, ModeSolve)
	want, err := newFor(4, jobs).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 4, Model: jobs[0].Inst.Model})
	got := make([]Result, len(jobs))
	err = e.RunOn(context.Background(), []func(*Worker) error{func(w *Worker) error {
		for i := range jobs {
			got[i] = w.Do(jobs[i])
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !solutionsEqual(want[i], got[i]) {
			t.Errorf("single-task worker: job %d diverged from Run", i)
		}
	}
}

func TestRunOnRequiresModel(t *testing.T) {
	e := New(Config{Workers: 2}) // a RunTasks pool
	err := e.RunOn(context.Background(), []func(*Worker) error{func(*Worker) error { return nil }})
	if !errors.Is(err, errNoModel) {
		t.Errorf("err = %v, want %v", err, errNoModel)
	}
}

func TestRunOnFirstErrorInSubmissionOrder(t *testing.T) {
	jobs := makeJobs(1, ModeSolve)
	e := New(Config{Workers: 4, Model: jobs[0].Inst.Model})
	tasks := []func(*Worker) error{
		func(*Worker) error { return nil },
		func(*Worker) error { return errors.New("wave-boom-1") },
		func(*Worker) error { panic("wave-panic") },
	}
	err := e.RunOn(context.Background(), tasks)
	if err == nil || !strings.Contains(err.Error(), "task 1") || !strings.Contains(err.Error(), "wave-boom-1") {
		t.Errorf("err = %v, want task 1 wave-boom-1", err)
	}
	if st := e.Stats(); st.Errors != 2 {
		t.Errorf("Stats.Errors = %d, want 2 (error + panic)", st.Errors)
	}
}

func TestRunOnCancelledContext(t *testing.T) {
	jobs := makeJobs(1, ModeSolve)
	e := New(Config{Workers: 2, Model: jobs[0].Inst.Model})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	tasks := make([]func(*Worker) error, 10)
	for i := range tasks {
		tasks[i] = func(*Worker) error { ran.Add(1); return nil }
	}
	if err := e.RunOn(ctx, tasks); err == nil {
		t.Error("cancelled context: want error")
	}
	if ran.Load() != 0 {
		t.Errorf("cancelled RunOn still executed %d tasks", ran.Load())
	}
}

func TestRunTasksCancelledContext(t *testing.T) {
	e := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	tasks := make([]func() error, 10)
	for i := range tasks {
		tasks[i] = func() error { ran.Add(1); return nil }
	}
	if err := e.RunTasks(ctx, "task", nil, tasks); err == nil {
		t.Error("cancelled context: want error")
	}
	if ran.Load() != 0 {
		t.Errorf("cancelled run still executed %d tasks", ran.Load())
	}
}
