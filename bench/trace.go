package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/keff"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/sino"
	"repro/internal/tech"
)

// tracedBase are the traced run's metrics before the worker suffix: each
// is reported at 1 worker (".w1") and at nproc workers (".wn").
var tracedBase = []metricDef{
	{"core.route_s", "s"},
	{"core.order_s", "s"},
	{"core.refine_s", "s"},
	{"ibm.generate_ms", "ms"},
	{"route.seed_ms", "ms"},
	{"route.sharded_ms", "ms"},
	{"route.resume_ms", "ms"},
	{"artifact.key_ms", "ms"},
	{"artifact.seal_ms", "ms"},
	{"artifact.encode_ms", "ms"},
	{"artifact.decode_ms", "ms"},
	{"artifact.bytes", "B"},
	{"artifact.disk_save_ms", "ms"},
	{"artifact.disk_load_ms", "ms"},
	{"artifact.flight_wait_s", "s"},
	{"engine.solve_batch_ms", "ms"},
	{"engine.netorder_batch_ms", "ms"},
	{"engine.dispatch_overhead_ms", "ms"},
	{"engine.parallel_eff", "ratio"},
	{"sino.solve_ms", "ms"},
	{"sino.solve_ns_per_track", "ns"},
	{"sino.edits", "count"},
	{"sino.rollbacks", "count"},
	{"sino.useful_edit_ratio", "ratio"},
	{"sched.warm_hit_rate", "ratio"},
	{"sched.cell_s_max", "s"},
	{"sched.holdback_s", "s"},
	{"sched.imbalance", "ratio"},
}

// spanMetric maps a span the traced run records to the metric its self
// time feeds, in milliseconds.
var spanMetric = map[string]string{
	"ibm.generate":          "ibm.generate_ms",
	"route.seed":            "route.seed_ms",
	"route.sharded":         "route.sharded_ms",
	"route.resume":          "route.resume_ms",
	"artifact.key":          "artifact.key_ms",
	"artifact.seal":         "artifact.seal_ms",
	"artifact.encode":       "artifact.encode_ms",
	"artifact.decode":       "artifact.decode_ms",
	"artifact.disk_save":    "artifact.disk_save_ms",
	"artifact.disk_load":    "artifact.disk_load_ms",
	"engine.solve_batch":    "engine.solve_batch_ms",
	"engine.netorder_batch": "engine.netorder_batch_ms",
	"sino.solve":            "sino.solve_ms",
}

// tracedLayers lists every traced metric with its worker suffix.
func tracedLayers() []metricDef {
	var out []metricDef
	for _, sfx := range []string{".w1", ".wn"} {
		for _, m := range tracedBase {
			out = append(out, metricDef{m.name + sfx, m.unit})
		}
	}
	return out
}

// pass is one traced sweep over the layers: at 1 worker on the store-less
// reference path, or at nproc workers on the workload's cached path.
type pass struct {
	suffix  string
	workers int
	cached  bool
	lane    obs.Lane

	phases  *obs.PhaseTimes // the flow's split, nested under its span when it ran one design
	resumed *route.Result   // route.resume's result, checked against a from-scratch route
	tracks  int             // tracks in sino.solve's solutions
}

// tracedRun calls each layer's public entry point on the workload's
// inputs, in pipeline order, once at 1 worker and once at nproc workers.
// Every call is wrapped in a span the benchmark records itself; the spans
// fold into per-layer self time, and the whole trace is written to out as
// Chrome trace-event JSON. It also checks the outputs: the two passes'
// flow digests must agree with each other and with the timed ops, and the
// ECO resume must route exactly like a from-scratch run. It returns the
// metrics, the number of checks made, and how many failed.
func tracedRun(ctx context.Context, fx *fixture, e *env, v *verifier, out string, logw io.Writer) (map[string]float64, int, int) {
	tr := obs.New()
	passes := []*pass{
		{suffix: ".w1", workers: 1, cached: false},
		{suffix: ".wn", workers: e.workers, cached: true},
	}
	m := map[string]float64{}
	checks, failed := 0, 0
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(logw, "traced run: "+format+"\n", args...)
	}
	var digests []string
	for _, p := range passes {
		p.lane = tr.Lane(fmt.Sprintf("bench workers=%d", p.workers))
		checks++
		d, err := tracePass(ctx, tr, p, fx, e, v, m)
		if err != nil {
			fail("workers=%d: %v", p.workers, err)
			continue
		}
		digests = append(digests, d)
		if want, ok := v.seen[0]; ok && d != want {
			fail("workers=%d: flow digest %s, timed ops gave %s", p.workers, d, want)
		}
	}
	if len(digests) == 2 && digests[0] != digests[1] {
		fail("flow digest at 1 worker without a store %s != at %d workers with one %s", digests[0], e.workers, digests[1])
	}

	// ECO resume ≡ from-scratch, at the route level, for the traced delta.
	checks++
	if err := checkResume(ctx, fx.trace, passes); err != nil {
		fail("%v", err)
	}

	events, err := exportTrace(tr, passes, out)
	if err != nil {
		fail("exporting the trace: %v", err)
	}
	for k, self := range selfTimes(events) {
		for _, p := range passes {
			if int(p.lane) == k.lane {
				if name, ok := spanMetric[k.name]; ok {
					m[name+p.suffix] += self / 1e3
				}
			}
		}
	}
	serial := m["sino.solve_ms.w1"]
	for _, p := range passes {
		batch, kernel := m["engine.solve_batch_ms"+p.suffix], m["sino.solve_ms"+p.suffix]
		m["engine.dispatch_overhead_ms"+p.suffix] = batch - kernel
		m["engine.parallel_eff"+p.suffix] = ratio(serial, float64(p.workers)*batch)
		m["sino.solve_ns_per_track"+p.suffix] = ratio(kernel*1e6, float64(p.tracks))
	}
	return m, checks, failed
}

// tracePass runs one pass and returns the flow's digest; the cached pass
// runs the workload's op, checked like a timed one. Metrics that are not
// span self times go straight into m.
func tracePass(ctx context.Context, tr *obs.Tracer, p *pass, fx *fixture, e *env, v *verifier, m map[string]float64) (string, error) {
	ti := fx.trace
	span := func(name string, fn func() error) error {
		// Each call starts from a collected heap, so no layer pays for
		// collecting the garbage of the call before it.
		runtime.GC()
		sp := tr.Start(p.lane, "bench", name)
		err := fn()
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	if err := span("ibm.generate", func() error {
		_, err := generate(ti.circuit, ti.scale, ti.rate, e.seed)
		return err
	}); err != nil {
		return "", err
	}

	var fr *flowRun
	if err := span("core.flow", func() (err error) {
		if p.cached {
			fr, _, err = op(ctx, fx, e, 0, v)
		} else {
			fr, err = fx.flow(ctx, 0, p.workers, false)
		}
		return err
	}); err != nil {
		return "", err
	}
	dg, err := digest(fr.outs)
	if err != nil {
		return "", err
	}
	for _, o := range fr.outs {
		m["core.route_s"+p.suffix] += o.Phases.Route.Seconds()
		m["core.order_s"+p.suffix] += o.Phases.Order.Seconds()
		m["core.refine_s"+p.suffix] += o.Phases.Refine.Seconds()
	}
	if len(fr.outs) == 1 {
		p.phases = &fr.outs[0].Phases
	}

	// Phase I, then the artifact codec and the disk tier, on the
	// workload's primary design.
	d := ti.design
	nets := routeNets(d)
	cfg := route.Config{ShieldAware: true}
	var scfg route.ShardConfig
	eng := engine.New(engine.Config{Workers: p.workers})
	var router *route.Router
	var res *route.Result
	var ds *route.DrainState
	var key artifact.Key
	var art *artifact.Artifact
	var buf []byte
	dir, err := e.mkdir("trace-disk")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	disk, err := artifact.NewDiskStore(dir, nil)
	if err != nil {
		return "", err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"route.seed", func() (err error) { router, err = route.NewRouterOn(ctx, d.Grid, cfg, nets, eng); return }},
		{"route.sharded", func() (err error) { res, ds, err = router.RunShardedState(ctx, eng, scfg); return }},
		{"artifact.key", func() error { key = artifact.KeyFor(d.Grid, cfg, scfg, nets); return nil }},
		{"artifact.seal", func() error { art = artifact.Seal(key, res, ds); return nil }},
		{"artifact.encode", func() (err error) { buf, err = artifact.Encode(art); return }},
		{"artifact.decode", func() error {
			back, err := artifact.Decode(buf)
			if err == nil && back.Key() != key {
				err = fmt.Errorf("decoded key %s, want %s", back.Key(), key)
			}
			return err
		}},
		{"artifact.disk_save", func() error { return disk.Save(art) }},
		{"artifact.disk_load", func() error {
			if disk.Load(key) == nil {
				return fmt.Errorf("saved artifact did not load: %+v", disk.Stats())
			}
			return nil
		}},
		{"route.resume", func() error {
			enets, err := editedNets(d, ti.delta)
			if err == nil {
				p.resumed, _, _, err = route.RunShardedResume(ctx, d.Grid, cfg, enets, eng, scfg, ds)
			}
			return err
		}},
	}
	for _, s := range steps {
		if err := span(s.name, s.fn); err != nil {
			return "", err
		}
	}
	m["artifact.bytes"+p.suffix] = float64(len(buf))

	// Phase II's region instances, solved by the engine and by the bare
	// kernel on the same number of goroutines.
	model := keff.NewModel(tech.Default())
	solveJobs := regionJobs(d, res, model, engine.ModeSolve)
	orderJobs := regionJobs(d, res, model, engine.ModeNetOrder)
	for _, b := range []struct {
		name string
		jobs []engine.Job
	}{{"engine.solve_batch", solveJobs}, {"engine.netorder_batch", orderJobs}} {
		be := engine.New(engine.Config{Workers: p.workers, Model: model})
		if err := span(b.name, func() error {
			results, err := be.Run(ctx, b.jobs)
			if err == nil {
				err = engine.FirstError(results)
			}
			return err
		}); err != nil {
			return "", err
		}
	}
	var es sino.EvalStats
	if err := span("sino.solve", func() error {
		p.tracks, es = solveKernel(solveJobs, model, p.workers)
		return nil
	}); err != nil {
		return "", err
	}
	m["sino.edits"+p.suffix] = float64(es.Edits)
	m["sino.rollbacks"+p.suffix] = float64(es.Rollbacks)
	m["sino.useful_edit_ratio"+p.suffix] = 1 - ratio(float64(es.Rollbacks), float64(es.Edits))

	// The batch scheduler over the workload's cells, sharing one store.
	return dg, span("sched.run", func() error { return traceSched(ctx, ti.cells, p.workers, p.suffix, m) })
}

// traceSched runs cells on the batch scheduler and records its metrics:
// the warm-start carryover, the slowest cell, how long finished cells were
// held back for in-order delivery, the imbalance of the outer pool, and
// the route-phase time of cells that used another cell's route (waiting
// for it, or reading it).
func traceSched(ctx context.Context, cells []sched.Cell, workers int, sfx string, m map[string]float64) error {
	var mu sync.Mutex
	started := make([]time.Time, len(cells))
	var holdback time.Duration
	t0 := time.Now()
	results, err := sched.Run(ctx, cells, sched.Config{
		Jobs: workers, Workers: workers, Artifacts: artifact.NewStore(0),
		OnStart: func(i, _ int) {
			mu.Lock()
			started[i] = time.Now()
			mu.Unlock()
		},
		OnResult: func(r sched.Result) {
			mu.Lock()
			if r.Outcome != nil {
				holdback += time.Since(started[r.Index]) - r.Outcome.Runtime
			}
			mu.Unlock()
		},
	})
	wall := time.Since(t0)
	if err == nil {
		err = sched.FirstError(results)
	}
	if err != nil {
		return err
	}
	// Cells of one design and shield-awareness share a route: one computes
	// it, the others wait on it or read it. The computing cell's route
	// phase is the longest of its group, since the others look up later
	// and finish with it.
	type routeKey struct {
		d      *core.Design
		shield bool
	}
	var busy, slowest, wait time.Duration
	longest := map[routeKey]time.Duration{}
	var warm float64
	for i, r := range results {
		o := r.Outcome
		busy += o.Runtime
		slowest = max(slowest, o.Runtime)
		warm += r.WarmHitRate()
		k := routeKey{cells[i].Design, o.Flow == core.FlowGSINO}
		wait += o.Phases.Route
		longest[k] = max(longest[k], o.Phases.Route)
	}
	for _, d := range longest {
		wait -= d
	}
	m["sched.warm_hit_rate"+sfx] = warm / float64(len(results))
	m["sched.cell_s_max"+sfx] = slowest.Seconds()
	m["sched.holdback_s"+sfx] = holdback.Seconds()
	m["sched.imbalance"+sfx] = ratio(wall.Seconds(), busy.Seconds()/float64(min(workers, len(cells))))
	m["artifact.flight_wait_s"+sfx] = wait.Seconds()
	return nil
}

// checkResume routes the traced delta's edited netlist from scratch and
// compares its fingerprint with each pass's resumed route.
func checkResume(ctx context.Context, ti traceInputs, passes []*pass) error {
	d := ti.design
	enets, err := editedNets(d, ti.delta)
	if err != nil {
		return err
	}
	router, err := route.NewRouter(d.Grid, route.Config{ShieldAware: true}, enets)
	if err != nil {
		return err
	}
	scratch, err := router.RunSharded(ctx, nil, route.ShardConfig{})
	if err != nil {
		return err
	}
	want := artifact.Fingerprint(scratch)
	for _, p := range passes {
		if p.resumed == nil {
			continue // the pass failed before resuming and was counted then
		}
		if got := artifact.Fingerprint(p.resumed); got != want {
			return fmt.Errorf("workers=%d: ECO resume fingerprint %s != from-scratch %s", p.workers, got, want)
		}
	}
	return nil
}

// routeNets converts a design into router requests the way core does.
func routeNets(d *core.Design) []route.Net {
	out := make([]route.Net, len(d.Nets.Nets))
	for i, n := range d.Nets.Nets {
		pins := make([]geom.Point, len(n.Pins))
		for j, p := range n.Pins {
			pins[j] = d.Grid.RegionOf(p.Loc)
		}
		out[i] = route.Net{ID: i, Pins: pins, Rate: d.Nets.Sensitivity.Rate(i)}
	}
	return out
}

func editedNets(d *core.Design, delta artifact.Delta) ([]route.Net, error) {
	edited, err := delta.Apply(d.Nets)
	if err != nil {
		return nil, err
	}
	return routeNets(&core.Design{Name: d.Name, Nets: edited, Grid: d.Grid, Rate: d.Rate}), nil
}

// regionJobs builds Phase II's workload from a routed result: one SINO
// instance per non-empty (region, direction), each net once per instance,
// in order of first appearance.
func regionJobs(d *core.Design, res *route.Result, model *keff.Model, mode engine.Mode) []engine.Job {
	type key struct {
		region int
		horz   bool
	}
	buckets := map[key][]sino.Seg{}
	var order []key
	for i := range res.Trees {
		seen := map[key]bool{}
		for _, e := range res.Trees[i].Edges {
			for _, pt := range []geom.Point{e.From, e.To} {
				k := key{d.Grid.Index(pt), e.Horizontal()}
				if seen[k] {
					continue
				}
				seen[k] = true
				if _, ok := buckets[k]; !ok {
					order = append(order, k)
				}
				buckets[k] = append(buckets[k], sino.Seg{Net: i, Kth: 0.6, Rate: d.Rate})
			}
		}
	}
	jobs := make([]engine.Job, len(order))
	for i, k := range order {
		jobs[i] = engine.Job{
			Inst: &sino.Instance{Segs: buckets[k], Sensitive: d.Nets.Sensitivity.Sensitive, Model: model},
			Mode: mode,
		}
	}
	return jobs
}

// solveKernel solves every instance with sino.SolveWith on workers
// goroutines — each with its own model clone and evaluator, all sharing
// one fresh coupling cache, exactly the resources an engine worker has —
// and returns the total tracks and the evaluators' summed counters.
func solveKernel(jobs []engine.Job, model *keff.Model, workers int) (int, sino.EvalStats) {
	cache := keff.NewPairCacheFor(model)
	var next atomic.Int64
	tracks := make([]int, workers)
	stats := make([]sino.EvalStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, ev := model.Clone(), sino.NewEval()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				inst := *jobs[i].Inst
				inst.Model, inst.Cache = m, cache
				sol, _ := sino.SolveWith(ev, &inst)
				tracks[w] += sol.NumTracks()
			}
			stats[w] = ev.Stats()
		}(w)
	}
	wg.Wait()
	total, st := 0, sino.EvalStats{}
	for w := range tracks {
		total += tracks[w]
		st = st.Add(stats[w])
	}
	return total, st
}

// traceEvent is one Chrome trace event, as obs writes them.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// exportTrace writes the recorded spans as Chrome trace JSON with each
// single-design flow's phase split nested under its span, and returns the
// complete events.
func exportTrace(tr *obs.Tracer, passes []*pass, out string) ([]traceEvent, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		return nil, err
	}
	var complete, phases []traceEvent
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.Dur == nil {
			continue
		}
		complete = append(complete, ev)
		if ev.Name != "core.flow" {
			continue
		}
		for _, p := range passes {
			if int(p.lane) != ev.Tid || p.phases == nil {
				continue
			}
			ts := ev.Ts
			ph := p.phases
			for _, s := range []struct {
				name string
				d    time.Duration
			}{{"core.route", ph.Route}, {"core.order", ph.Order}, {"core.refine", ph.Refine}} {
				dur := float64(s.d.Nanoseconds()) / 1e3
				phases = append(phases, traceEvent{Name: s.name, Cat: "phase", Ph: "X", Ts: ts, Dur: &dur, Pid: ev.Pid, Tid: ev.Tid})
				ts += dur
			}
		}
	}
	complete = append(complete, phases...)
	file.TraceEvents = append(file.TraceEvents, phases...)
	// Metadata first, then events by start time, as obs orders them.
	sort.SliceStable(file.TraceEvents, func(a, b int) bool {
		ea, eb := file.TraceEvents[a], file.TraceEvents[b]
		if (ea.Ph == "M") != (eb.Ph == "M") {
			return ea.Ph == "M"
		}
		return ea.Ts < eb.Ts
	})
	if out != "" {
		data, err := json.Marshal(file)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return nil, err
		}
	}
	return complete, nil
}

// laneSpan names a span on one lane.
type laneSpan struct {
	lane int
	name string
}

// selfTimes folds complete events into self time per (lane, name), in the
// events' unit: each span's duration minus the part of its interval that
// the spans nested inside it on the same lane cover. Nested spans may
// overlap each other (concurrent children); the covered part is the union
// of their intervals, so overlap is not subtracted twice. Of two spans
// with the same interval, the earlier one is the parent.
func selfTimes(evs []traceEvent) map[laneSpan]float64 {
	out := map[laneSpan]float64{}
	for i, s := range evs {
		lo, hi := s.Ts, s.Ts+*s.Dur
		var kids [][2]float64
		for j, c := range evs {
			if j == i || c.Tid != s.Tid {
				continue
			}
			clo, chi := c.Ts, c.Ts+*c.Dur
			if clo < lo || chi > hi || (clo == lo && chi == hi && j < i) {
				continue
			}
			kids = append(kids, [2]float64{clo, chi})
		}
		out[laneSpan{s.Tid, s.Name}] += (hi - lo) - covered(kids)
	}
	return out
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total := 0.0
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else {
			hi = max(hi, x[1])
		}
	}
	return total + hi - lo
}
