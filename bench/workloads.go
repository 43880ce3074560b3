package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/ibm"
	"repro/internal/report"
	"repro/internal/sched"
)

// env is what every workload's set-up sees: the run's seed, the worker
// count the timed ops use, and where it may write.
type env struct {
	seed    int64
	workers int    // engine workers and batch jobs of a timed op: runtime.NumCPU()
	scratch string // a directory the run owns; removed when the run ends
	smoke   bool   // self-test sizes: every circuit at scale 16, short streams
}

// scale returns the circuit scale divisor a workload uses: its own, or 16
// in smoke mode.
func (e *env) scale(s int) int {
	if e.smoke {
		return 16
	}
	return s
}

// spec is one workload: how to set it up and how many untimed warm-up ops
// precede the timed loop. Why each workload exists is recorded in
// BENCHMARK.json and README.md.
type spec struct {
	name    string
	warmups int
	setup   func(ctx context.Context, e *env) (*fixture, error)
}

// workloads is the benchmark's workload table. Each one stresses a
// different layer, and for each layer there is a workload that bypasses
// it (bench/README.md has the layer → metric → workload map).
var workloads = []spec{
	{
		name:    "dense-warm",
		warmups: 1,
		setup:   setupDenseWarm,
	},
	{
		name:    "wide-cold",
		warmups: 1,
		setup:   setupWideCold,
	},
	{
		name:    "grid12",
		warmups: 1,
		setup:   setupGrid12,
	},
	{
		name:    "eco-stream",
		warmups: 4,
		setup:   setupECOStream,
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// flowRun is what one execution of a workload's flow produced: the
// outcomes in a fixed order and the artifact store's counters.
type flowRun struct {
	outs []*core.Outcome
	art  artifact.Stats
}

// fixture is a set-up workload: inputs generated, caches primed.
type fixture struct {
	// flow runs the workload's op on input key with the given worker
	// count. cached selects the op's artifact store (the timed path);
	// uncached is the serial reference path the determinism contract says
	// must produce the same bytes.
	flow func(ctx context.Context, key, workers int, cached bool) (*flowRun, error)

	// check validates that a cached op took the path the workload exists
	// to exercise (a disk hit, a route, an ECO resume).
	check func(r *flowRun) error

	// keys is the number of distinct inputs; op i runs input i % keys.
	keys int

	// after runs untimed after each cached op (eco-stream trims its
	// directory back to the base artifact); nil does nothing.
	after func() error

	// trace holds the inputs of the traced run.
	trace traceInputs

	dir string // the fixture's artifact directory, removed by close; "" for none
}

func (f *fixture) close() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// traceInputs are the layer-level inputs of a workload's traced run.
type traceInputs struct {
	circuit string
	scale   int
	rate    float64
	design  *core.Design   // the generated primary design
	delta   artifact.Delta // the edit route.resume replays
	cells   []sched.Cell   // the batch sched.run executes
}

// generate builds a workload's circuit. The seed picks the sensitivity
// relation — which nets are aggressors of which, the paper's random
// "sensitive to 30% of the other nets" — while the placement is always the
// generator's seed-1 placement. Placements differ in routing work (how
// much rip-up reconciliation they need) by about ±20%, more than any
// regression bound could absorb, whereas a sensitivity relation drawn at
// a fixed rate costs the same to solve within a few percent. Seed 1 is
// exactly the circuit `tables -seed 1` generates.
func generate(circuit string, scale int, rate float64, seed int64) (*core.Design, error) {
	p, err := ibm.ProfileByName(circuit)
	if err != nil {
		return nil, err
	}
	gen := func(seed int64) (*ibm.Circuit, error) {
		return ibm.Generate(p, ibm.Options{Seed: seed, Scale: scale, SensRate: rate})
	}
	ckt, err := gen(1)
	if err != nil {
		return nil, err
	}
	if seed != 1 {
		seeded, err := gen(seed)
		if err != nil {
			return nil, err
		}
		ckt.Nets.Sensitivity = seeded.Nets.Sensitivity
	}
	return &core.Design{Name: p.Name, Nets: ckt.Nets, Grid: ckt.Grid, Rate: rate}, nil
}

// runOne runs one flow on a fresh runner.
func runOne(ctx context.Context, d *core.Design, f core.Flow, p core.Params) (*flowRun, error) {
	r, err := core.NewRunner(d, p)
	if err != nil {
		return nil, err
	}
	o, err := r.RunContext(ctx, f)
	if err != nil {
		return nil, err
	}
	fr := &flowRun{outs: []*core.Outcome{o}}
	if p.Artifacts != nil {
		fr.art = p.Artifacts.Stats()
	}
	return fr, nil
}

// diskStore returns a fresh in-memory store over dir's persistent tier.
func diskStore(dir string) (*artifact.Store, error) {
	disk, err := artifact.NewDiskStore(dir, nil)
	if err != nil {
		return nil, err
	}
	return artifact.NewStore(0).WithDisk(disk), nil
}

func (e *env) mkdir(name string) (string, error) {
	return os.MkdirTemp(e.scratch, name+"-")
}

// threeFlows is one design's three cells, in the tables order.
func threeFlows(d *core.Design) []sched.Cell {
	var cells []sched.Cell
	for _, f := range []core.Flow{core.FlowIDNO, core.FlowISINO, core.FlowGSINO} {
		cells = append(cells, sched.Cell{Design: d, Flow: f})
	}
	return cells
}

// firstDelta is the ECO edit a workload's traced run resumes with.
func firstDelta(seed int64, d *core.Design) artifact.Delta {
	return ecoStream(seed, d, 1)[0]
}

func setupDenseWarm(ctx context.Context, e *env) (*fixture, error) {
	const circuit, rate = "ibm01", 0.5
	scale := e.scale(4)
	d, err := generate(circuit, scale, rate, e.seed)
	if err != nil {
		return nil, err
	}
	dir, err := e.mkdir("dense-warm")
	if err != nil {
		return nil, err
	}
	fx := &fixture{keys: 1, dir: dir}
	store, err := diskStore(dir)
	if err != nil {
		fx.close()
		return nil, err
	}
	if _, err := runOne(ctx, d, core.FlowGSINO, core.Params{Workers: e.workers, Artifacts: store}); err != nil {
		fx.close()
		return nil, fmt.Errorf("priming the artifact dir: %w", err)
	}
	fx.flow = func(ctx context.Context, _, workers int, cached bool) (*flowRun, error) {
		p := core.Params{Workers: workers}
		if cached {
			s, err := diskStore(dir)
			if err != nil {
				return nil, err
			}
			p.Artifacts = s
		}
		return runOne(ctx, d, core.FlowGSINO, p)
	}
	fx.check = func(r *flowRun) error {
		if r.art.Disk.Hits != 1 || r.art.Misses != 0 {
			return fmt.Errorf("phase I was not a disk hit: %+v", r.art)
		}
		return nil
	}
	fx.trace = traceInputs{circuit: circuit, scale: scale, rate: rate, design: d,
		delta: firstDelta(e.seed, d), cells: threeFlows(d)}
	return fx, nil
}

func setupWideCold(ctx context.Context, e *env) (*fixture, error) {
	const circuit, rate = "ibm05", 0.3
	scale := e.scale(2)
	d, err := generate(circuit, scale, rate, e.seed)
	if err != nil {
		return nil, err
	}
	fx := &fixture{keys: 1}
	fx.flow = func(ctx context.Context, _, workers int, cached bool) (*flowRun, error) {
		p := core.Params{Workers: workers}
		if cached {
			p.Artifacts = artifact.NewStore(0)
		}
		return runOne(ctx, d, core.FlowGSINO, p)
	}
	fx.check = func(r *flowRun) error {
		if r.art.Misses != 1 {
			return fmt.Errorf("phase I did not route: %+v", r.art)
		}
		return nil
	}
	fx.trace = traceInputs{circuit: circuit, scale: scale, rate: rate, design: d,
		delta: firstDelta(e.seed, d), cells: threeFlows(d)}
	return fx, nil
}

func setupGrid12(ctx context.Context, e *env) (*fixture, error) {
	scale := e.scale(8)
	var cells []sched.Cell
	var primary *core.Design
	for _, circuit := range []string{"ibm01", "ibm02"} {
		for _, rate := range []float64{0.3, 0.5} {
			d, err := generate(circuit, scale, rate, e.seed)
			if err != nil {
				return nil, err
			}
			if primary == nil {
				primary = d
			}
			cells = append(cells, threeFlows(d)...)
		}
	}
	fx := &fixture{keys: 1}
	fx.flow = func(ctx context.Context, _, workers int, cached bool) (*flowRun, error) {
		cfg := sched.Config{Jobs: workers, Workers: workers}
		if cached {
			cfg.Artifacts = artifact.NewStore(0)
		}
		results, err := sched.Run(ctx, cells, cfg)
		if err != nil {
			return nil, err
		}
		if err := sched.FirstError(results); err != nil {
			return nil, err
		}
		fr := &flowRun{}
		for _, r := range results {
			fr.outs = append(fr.outs, r.Outcome)
		}
		if cached {
			fr.art = cfg.Artifacts.Stats()
		}
		return fr, nil
	}
	fx.check = func(r *flowRun) error {
		// Four designs × two routes (shield-aware or not); the third flow
		// of each design shares a route.
		if r.art.Misses != 8 || r.art.Hits != 4 {
			return fmt.Errorf("grid routed %d times with %d shared routes, want 8 and 4", r.art.Misses, r.art.Hits)
		}
		return nil
	}
	fx.trace = traceInputs{circuit: "ibm01", scale: scale, rate: 0.3, design: primary,
		delta: firstDelta(e.seed, primary), cells: cells}
	return fx, nil
}

// ecoStreamLen is the number of distinct deltas in eco-stream; ops cycle
// through them.
const ecoStreamLen = 120

func setupECOStream(ctx context.Context, e *env) (*fixture, error) {
	const circuit, rate = "ibm05", 0.3
	scale := e.scale(4)
	n := ecoStreamLen
	if e.smoke {
		n = 6
	}
	base, err := generate(circuit, scale, rate, e.seed)
	if err != nil {
		return nil, err
	}
	dir, err := e.mkdir("eco-stream")
	if err != nil {
		return nil, err
	}
	fx := &fixture{keys: n, dir: dir}
	store, err := diskStore(dir)
	if err != nil {
		fx.close()
		return nil, err
	}
	if _, err := runOne(ctx, base, core.FlowGSINO, core.Params{Workers: e.workers, Artifacts: store}); err != nil {
		fx.close()
		return nil, fmt.Errorf("routing the base design: %w", err)
	}
	baseFiles, err := listDir(dir)
	if err != nil {
		fx.close()
		return nil, err
	}
	deltas := ecoStream(e.seed, base, n)
	fx.flow = func(ctx context.Context, key, workers int, cached bool) (*flowRun, error) {
		delta := deltas[key]
		if !cached {
			edited, err := delta.Apply(base.Nets)
			if err != nil {
				return nil, err
			}
			d := &core.Design{Name: base.Name, Nets: edited, Grid: base.Grid, Rate: base.Rate}
			return runOne(ctx, d, core.FlowGSINO, core.Params{Workers: workers})
		}
		s, err := diskStore(dir)
		if err != nil {
			return nil, err
		}
		r, err := core.NewECORunner(base, delta, core.Params{Workers: workers, Artifacts: s})
		if err != nil {
			return nil, err
		}
		o, err := r.RunContext(ctx, core.FlowGSINO)
		if err != nil {
			return nil, err
		}
		return &flowRun{outs: []*core.Outcome{o}, art: s.Stats()}, nil
	}
	fx.check = func(r *flowRun) error {
		if r.outs[0].ECO.EditedNets == 0 || r.art.Disk.Hits != 1 || r.art.Disk.Writes != 1 {
			return fmt.Errorf("op did not resume from the disk base and write through: eco %+v, artifacts %+v",
				r.outs[0].ECO, r.art)
		}
		return nil
	}
	// Deleting each op's write-through keeps the directory at the base
	// artifact, so every op pays the same disk load; the disk tier itself
	// has no size bound to do this.
	fx.after = func() error {
		files, err := listDir(dir)
		if err != nil {
			return err
		}
		for name := range files {
			if !baseFiles[name] {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	fx.trace = traceInputs{circuit: circuit, scale: scale, rate: rate, design: base,
		delta: deltas[0], cells: threeFlows(base)}
	return fx, nil
}

func listDir(dir string) (map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(entries))
	for _, e := range entries {
		names[e.Name()] = true
	}
	return names, nil
}

// digest is the correctness fingerprint of one op: SHA-256 over the
// report CSV of its outcomes plus the deterministic counters the CSV does
// not show. Equal inputs must give equal digests at any worker count and
// with or without an artifact store.
func digest(outs []*core.Outcome) (string, error) {
	set := report.NewSet()
	for _, o := range outs {
		set.Add(o)
	}
	var csv bytes.Buffer
	if err := set.CSV(&csv); err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(csv.Bytes())
	for _, o := range outs {
		fmt.Fprintf(h, "%s %s %.2f refinements=%d unfixable=%d route=%+v refine=%+v\n",
			o.Design, o.Flow, o.Rate, o.Refinements, o.Unfixable, o.Route, o.Refine)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
