package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
)

// setupRepeats is how many times a timed run sets its workload up; setup_s
// is the median, so work moved into set-up shows without one slow
// generation deciding it.
const setupRepeats = 3

// minOps is the fewest timed ops a run makes, however long they take.
const minOps = 5

// result is the object a run prints as its last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run reports (-trace 0).
var endToEnd = []metricDef{
	{"op_s", "s"},
	{"op_s_p90", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// layerDef is a per-layer metric read from one timed op's outcomes; a
// run reports its median over the timed ops.
type layerDef struct {
	metricDef
	of func(r *flowRun) float64
}

// timedLayers are the per-layer metrics the timed loop's outcomes carry.
// Sums run over every outcome of the op (the grid's twelve cells); route
// counters run over the outcomes that own a route (ID+NO shares iSINO's);
// "largest" counters take the maximum.
var timedLayers = []layerDef{
	{metricDef{"core.route_s", "s"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return o.Phases.Route.Seconds() })
	}},
	{metricDef{"core.order_s", "s"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return o.Phases.Order.Seconds() })
	}},
	{metricDef{"core.refine_s", "s"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return o.Phases.Refine.Seconds() })
	}},

	{metricDef{"route.shards", "count"}, func(r *flowRun) float64 {
		return sum(routed(r), func(o *core.Outcome) float64 { return float64(o.Route.Shards) })
	}},
	{metricDef{"route.largest_shard", "count"}, func(r *flowRun) float64 {
		return maxOf(routed(r), func(o *core.Outcome) float64 { return float64(o.Route.LargestShard) })
	}},
	{metricDef{"route.seed_chunks", "count"}, func(r *flowRun) float64 {
		return sum(routed(r), func(o *core.Outcome) float64 { return float64(o.Route.SeedChunks) })
	}},
	{metricDef{"route.reconciled_nets", "count"}, func(r *flowRun) float64 {
		return sum(routed(r), func(o *core.Outcome) float64 { return float64(o.Route.Reconciled) })
	}},
	{metricDef{"route.reconcile_rounds", "count"}, func(r *flowRun) float64 {
		return sum(routed(r), func(o *core.Outcome) float64 { return float64(o.Route.ReconcileRounds) })
	}},
	{metricDef{"route.largest_component", "count"}, func(r *flowRun) float64 {
		return maxOf(routed(r), func(o *core.Outcome) float64 { return float64(o.Route.LargestComponent) })
	}},

	{metricDef{"eco.tiles_reused_ratio", "ratio"}, func(r *flowRun) float64 {
		reused := sum(r.outs, func(o *core.Outcome) float64 { return float64(o.ECO.TilesReused) })
		return ratio(reused, reused+sum(r.outs, func(o *core.Outcome) float64 { return float64(o.ECO.TilesInvalid) }))
	}},
	{metricDef{"eco.nets_reused_ratio", "ratio"}, func(r *flowRun) float64 {
		reused := sum(r.outs, func(o *core.Outcome) float64 { return float64(o.ECO.NetsReused) })
		return ratio(reused, reused+sum(r.outs, func(o *core.Outcome) float64 { return float64(o.ECO.NetsRerouted) }))
	}},
	{metricDef{"eco.nets_rerouted", "count"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return float64(o.ECO.NetsRerouted) })
	}},

	{metricDef{"engine.instances", "count"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Engine.Jobs) })
	}},
	{metricDef{"engine.tasks", "count"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Engine.Tasks) })
	}},
	{metricDef{"engine.waves", "count"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Engine.Waves) })
	}},
	{metricDef{"engine.tracks", "count"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Engine.Tracks) })
	}},

	{metricDef{"keff.hit_rate", "ratio"}, func(r *flowRun) float64 {
		hits := sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Engine.CacheHits) })
		return ratio(hits, hits+sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Engine.CacheMiss) }))
	}},
	{metricDef{"keff.dense_entries", "count"}, func(r *flowRun) float64 {
		return maxOf(r.outs, func(o *core.Outcome) float64 { return float64(o.Cache.Dense) })
	}},
	{metricDef{"keff.overflow_entries", "count"}, func(r *flowRun) float64 {
		return maxOf(r.outs, func(o *core.Outcome) float64 { return float64(o.Cache.Overflow) })
	}},

	{metricDef{"refine.waves", "count"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Refine.Waves) })
	}},
	{metricDef{"refine.max_wave", "count"}, func(r *flowRun) float64 {
		return maxOf(r.outs, func(o *core.Outcome) float64 { return float64(o.Refine.MaxWave) })
	}},
	{metricDef{"refine.resolves", "count"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Refinements) })
	}},
	{metricDef{"refine.refreshed", "count"}, func(r *flowRun) float64 {
		return sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Refine.Refreshed) })
	}},
	{metricDef{"refine.accept_ratio", "ratio"}, func(r *flowRun) float64 {
		return ratio(sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Refine.Accepted) }),
			sum(r.outs, func(o *core.Outcome) float64 { return float64(o.Refine.Relaxed) }))
	}},

	{metricDef{"artifact.hits", "count"}, func(r *flowRun) float64 { return float64(r.art.Hits) }},
	{metricDef{"artifact.misses", "count"}, func(r *flowRun) float64 { return float64(r.art.Misses) }},
	{metricDef{"artifact.hit_ratio", "ratio"}, func(r *flowRun) float64 {
		return ratio(float64(r.art.Hits), float64(r.art.Hits+r.art.Misses))
	}},
	{metricDef{"artifact.disk_hits", "count"}, func(r *flowRun) float64 { return float64(r.art.Disk.Hits) }},
	{metricDef{"artifact.disk_writes", "count"}, func(r *flowRun) float64 { return float64(r.art.Disk.Writes) }},
	{metricDef{"artifact.disk_corrupt", "count"}, func(r *flowRun) float64 { return float64(r.art.Disk.Corrupt) }},
}

func sum(outs []*core.Outcome, f func(*core.Outcome) float64) float64 {
	s := 0.0
	for _, o := range outs {
		s += f(o)
	}
	return s
}

func maxOf(outs []*core.Outcome, f func(*core.Outcome) float64) float64 {
	m := 0.0
	for _, o := range outs {
		m = max(m, f(o))
	}
	return m
}

// routed returns the outcomes that own a distinct route: in a batch, an
// ID+NO cell reuses the unshielded route of its design's iSINO cell.
func routed(r *flowRun) []*core.Outcome {
	if len(r.outs) == 1 {
		return r.outs
	}
	var out []*core.Outcome
	for _, o := range r.outs {
		if o.Flow != core.FlowIDNO {
			out = append(out, o)
		}
	}
	return out
}

//go:embed digests.json
var digestsJSON []byte

// committedDigests returns the seed-1 digests of a workload's inputs,
// indexed by input key, or nil when none are committed for this run.
func committedDigests(workload string, e *env) ([]string, error) {
	if e.seed != 1 || e.smoke {
		return nil, nil
	}
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("parsing digests.json: %w", err)
	}
	return all[workload], nil
}

// verifier checks every op's digest: against the committed digest of its
// input when one exists, and against every earlier op on the same input.
type verifier struct {
	want  []string
	seen  map[int]string
	count map[int]int
	order []int // keys in first-seen order
}

func newVerifier(workload string, e *env) (*verifier, error) {
	want, err := committedDigests(workload, e)
	if err != nil {
		return nil, err
	}
	return &verifier{want: want, seen: map[int]string{}, count: map[int]int{}}, nil
}

func (v *verifier) check(key int, fr *flowRun) error {
	d, err := digest(fr.outs)
	if err != nil {
		return err
	}
	v.count[key]++
	if prev, ok := v.seen[key]; ok {
		if d != prev {
			return fmt.Errorf("input %d: digest %s differs from an earlier op's %s", key, d, prev)
		}
	} else {
		v.seen[key] = d
		v.order = append(v.order, key)
	}
	if v.want != nil {
		if key >= len(v.want) {
			return fmt.Errorf("input %d: no committed digest (digests.json has %d)", key, len(v.want))
		}
		if d != v.want[key] {
			return fmt.Errorf("input %d: digest %s, committed %s", key, d, v.want[key])
		}
	}
	return nil
}

// refKeys picks up to n of the keys seen, spread over the order they were
// first run in, for the reference check.
func (v *verifier) refKeys(n int) []int {
	if len(v.order) <= n {
		return v.order
	}
	keys := make([]int, n)
	for i := range keys {
		keys[i] = v.order[i*(len(v.order)-1)/(n-1)]
	}
	return keys
}

// op runs one cached op and checks it; the returned duration covers the
// flow alone.
func op(ctx context.Context, fx *fixture, e *env, key int, v *verifier) (*flowRun, time.Duration, error) {
	t0 := time.Now()
	fr, err := fx.flow(ctx, key, e.workers, true)
	dt := time.Since(t0)
	if err == nil {
		err = fx.check(fr)
	}
	if err == nil {
		err = v.check(key, fr)
	}
	if fx.after != nil {
		if aerr := fx.after(); aerr != nil && err == nil {
			err = aerr
		}
	}
	return fr, dt, err
}

type runOpts struct {
	seconds  float64
	trace    bool
	traceOut string // where the traced run writes its Chrome trace
}

// runWorkload sets the workload up, runs the timed loop, checks outputs,
// and returns the result. An error means the run could not measure at all
// (set-up failed); wrong outputs are reported in the result instead.
func runWorkload(ctx context.Context, sp spec, e *env, opts runOpts, logw io.Writer) (*result, error) {
	v, err := newVerifier(sp.name, e)
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if opts.trace || e.smoke {
		repeats = 1 // the traced run reports no setup_s
	}
	var fx *fixture
	var setups []float64
	warm, warmFailed := 0, 0 // warm-up ops are checked like timed ones
	for r := 0; r < repeats; r++ {
		if fx != nil {
			// Drop the previous set-up first, so no set-up's time includes
			// collecting another's garbage.
			fx.close()
			fx = nil
			runtime.GC()
		}
		t0 := time.Now()
		if fx, err = sp.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		for i := 0; i < sp.warmups; i++ {
			warm++
			if _, _, err := op(ctx, fx, e, i%fx.keys, v); err != nil {
				warmFailed++
				fmt.Fprintf(logw, "%s: warm-up op %d: %v\n", sp.name, i, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()

	least := minOps
	if e.smoke {
		least = 2
	}
	seconds := opts.seconds
	if opts.trace {
		// The timed loop only feeds the per-layer medians here; the traced
		// run gets the other half of the time.
		seconds /= 2
	}
	// Set-up's garbage is collected before the CPU baseline, so cpu_s does
	// not pay for it.
	runtime.GC()
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	alloc0 := totalAlloc()
	start := time.Now()
	var opSecs, opPeaks []float64
	var samples []*flowRun
	attempted, failed := 0, 0
	for i := sp.warmups; attempted < least || time.Since(start).Seconds() < seconds; i++ {
		// Every op starts from a heap collected and returned to the OS, as a
		// designer's run starts in a fresh process, and its peak RSS is
		// measured from there. Without this, where the previous op's garbage
		// puts the GC's next cycle would decide the process's peak, which
		// then varies by up to a quarter between runs. The collection is
		// outside the op's time but inside cpu_s.
		debug.FreeOSMemory()
		peakErr := resetPeakRSS()
		fr, dt, err := op(ctx, fx, e, i%fx.keys, v)
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(logw, "%s: op %d: %v\n", sp.name, i, err)
			continue
		}
		peak, err := peakRSSMB()
		if err == nil {
			err = peakErr
		}
		if err != nil {
			return nil, fmt.Errorf("measuring peak RSS: %w", err)
		}
		opSecs = append(opSecs, dt.Seconds())
		opPeaks = append(opPeaks, peak)
		samples = append(samples, fr)
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	alloc1 := totalAlloc()

	// Reference check, untimed: the serial, store-less path must give the
	// same bytes as the timed ops on a sample of their inputs. A mismatch
	// means the timed path is wrong, so every op counts as failed.
	for _, key := range v.refKeys(3) {
		fr, err := fx.flow(ctx, key, 1, false)
		var d string
		if err == nil {
			d, err = digest(fr.outs)
		}
		if err == nil && d != v.seen[key] {
			err = fmt.Errorf("digest %s, timed ops gave %s", d, v.seen[key])
		}
		if err != nil {
			warmFailed, failed = warm, attempted
			fmt.Fprintf(logw, "%s: reference check of input %d: %v\n", sp.name, key, err)
		}
	}

	res := &result{Attempted: warm + attempted, Failed: warmFailed + failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	fmt.Fprintf(logw, "%s: %d timed ops (%d failed) in %.1fs, seed %d, %d workers\n",
		sp.name, attempted, failed, time.Since(start).Seconds(), e.seed, e.workers)

	if !opts.trace {
		n := float64(attempted)
		vals := map[string]float64{
			"op_s":        median(opSecs),
			"op_s_p90":    p90(opSecs),
			"setup_s":     median(setups),
			"cpu_s":       (cpu1 - cpu0).Seconds() / n,
			"alloc_mb":    float64(alloc1-alloc0) / n / 1e6,
			"peak_rss_mb": median(opPeaks),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res, nil
	}

	for _, l := range timedLayers {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = l.of(s)
		}
		res.Metrics[l.name] = metric{median(vals), l.unit}
	}
	tm, checks, bad := tracedRun(ctx, fx, e, v, opts.traceOut, logw)
	res.Attempted += checks
	res.Failed += bad
	res.Correct = res.Correct && bad == 0
	for _, m := range tracedLayers() {
		res.Metrics[m.name] = metric{tm[m.name], m.unit}
	}
	return res, nil
}
