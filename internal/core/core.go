// Package core assembles the paper's three full-chip routing flows:
//
//   - GSINO — the paper's contribution (§3): crosstalk budgeting (Phase I)
//     feeding a shield-aware iterative-deletion router, SINO inside every
//     routing region (Phase II), and two-pass local refinement (Phase III,
//     Figure 2).
//   - iSINO — baseline: the same router without shield-area awareness,
//     followed by SINO per region.
//   - ID+NO — baseline: the same router followed by net ordering only,
//     which is blind to inductive crosstalk (Table 1's violating flow).
//
// The outcome of a flow carries the paper's three reported metrics:
// crosstalk-violating net counts (Table 1), average wirelength (Table 2),
// and routing area (Table 3).
//
// All three phases execute on one bounded worker pool (internal/engine):
// Phase I as sharded routing-tile drains, Phase II as one job per
// (region, direction) instance, Phase III as warm single-job re-solves.
// Params.Workers sizes the pool and never changes a result byte — see
// DESIGN.md §4–5 for the determinism contracts.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/keff"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/sino"
	"repro/internal/tech"
)

// Flow names a routing approach.
type Flow string

// The three flows of the paper's evaluation (§4).
const (
	FlowIDNO  Flow = "ID+NO"
	FlowISINO Flow = "iSINO"
	FlowGSINO Flow = "GSINO"
)

// Params carries the algorithm knobs shared by all flows. The zero value
// selects the paper's defaults everywhere. Every flow runs the default
// technology (tech.Default).
type Params struct {
	// VThreshold is the sink crosstalk constraint; 0 → 0.15 V (paper §4).
	VThreshold float64

	// Alpha, Beta, Gamma are the ID weight constants; zeros → 2, 1, 50
	// (route.Config resolves them).
	Alpha, Beta, Gamma float64

	// CongestionBudgeting enables the §5 future-work budgeting policy in
	// GSINO: after uniform Phase I partitioning, each net's budget is
	// redistributed across its regions in proportion to local congestion.
	CongestionBudgeting bool

	// Workers bounds the engine's worker pool, shared by all three phases:
	// Phase I routing shards and Phase II/III region solves; 0 selects one
	// worker per CPU. Results are bit-identical at every setting — this is
	// purely a throughput knob.
	Workers int

	// Cache optionally injects a shared pair-coupling cache into the
	// runner's engine; nil builds a private one. Cache entries are pure
	// functions of relative track geometry under the default technology,
	// so a cache may be shared by every runner — the batch scheduler
	// (internal/sched) does exactly that, letting later cells start warm —
	// and sharing never changes a result byte; see DESIGN.md §8.
	Cache *keff.PairCache

	// Artifacts optionally injects a shared routing-artifact store: Phase I
	// consults it by content key (netlist, grid, routing params,
	// shield-awareness) and skips routing entirely on a hit, so the three
	// flows of one cell perform at most two routes (shield-aware and not)
	// — and, under the batch scheduler, later cells reuse earlier cells'
	// routes outright. nil routes every flow from scratch. Like Cache,
	// sharing never changes a result byte: a hit returns exactly the bytes
	// the miss sealed, and the determinism contract extends to cache-on vs
	// cache-off vs ECO runs (DESIGN.md §11), and — when the store carries
	// a persistent tier (artifact.Store.WithDisk) — to cold vs
	// warm-directory runs across process boundaries.
	Artifacts *artifact.Store

	// Trace, when non-nil, records phase and span events for the whole
	// flow — Phase I shards and reconciliation, Phase II engine batches,
	// Phase III waves and pass-2 speculation — exportable as Chrome
	// trace-event JSON (obs.Tracer.WriteJSON). Nil is the untraced state
	// and costs nothing. Tracing is observational only: results are
	// byte-identical with and without a tracer, at any worker count
	// (DESIGN.md §9).
	Trace *obs.Tracer

	// TraceLane, when nonzero, is the pre-allocated lane the runner's
	// flow-level spans use (the batch scheduler passes its runner lane so
	// a cell's spans nest under its cell span); zero allocates a lane
	// named after the design.
	TraceLane obs.Lane
}

// Design is the routing problem: a placed netlist on a region grid.
type Design struct {
	Name string
	Nets *netlist.Netlist
	Grid *grid.Grid
	Rate float64 // the experiment's sensitivity rate (reporting only)
}

// Outcome reports one flow's results in the paper's metrics.
type Outcome struct {
	Flow   Flow
	Design string
	Rate   float64

	TotalNets    int
	Violations   int     // nets whose LSK noise exceeds the threshold
	ViolationPct float64 // Violations/TotalNets × 100 (Table 1)

	AvgWL   geom.Micron // average routed wirelength per net (Table 2)
	TotalWL geom.Micron

	Area        grid.Area // expanded routing area (Table 3)
	NominalArea grid.Area // the unexpanded chip

	Shields     int // total shield tracks inserted
	SegTracks   int // total signal track segments
	Refinements int // Phase III pass-1 SINO re-runs (GSINO only)
	Unfixable   int // violating nets Phase III could not repair

	Congestion grid.CongestionStats // of the final (shields included) usage

	// Refine reports Phase III's parallel decomposition (GSINO only).
	Refine RefineStats

	// Engine reports the region-solve engine's activity during this flow:
	// instances solved, generic tasks run, per-solution track totals, and
	// the coupling-cache hit rate.
	Engine engine.Stats

	// Route reports how Phase I decomposed into routing shards and how much
	// boundary reconciliation it needed.
	Route route.RunStats

	// Eval reports the engine's pooled incremental evaluators' activity
	// during this flow (binds, loads, incremental edits, rollbacks). Like
	// every surfaced counter it is worker-count invariant.
	Eval sino.EvalStats

	// Artifact reports the routing-artifact store's activity during this
	// flow: lookups served warm, routes computed and sealed, LRU
	// evictions. Under a shared store the attribution of hits to flows is
	// schedule-dependent (whichever runner asks first pays the miss), so
	// like Cache these are reporting-only and never part of the
	// determinism fingerprint; the per-key totals themselves are invariant
	// (one miss plus uses−1 hits).
	Artifact artifact.Stats

	// ECO reports the incremental re-solve's invalidation accounting when
	// this flow's Phase I resumed from a warm base artifact (zero when it
	// routed from scratch or hit the cache outright). Reporting-only for
	// the same attribution reason as Artifact.
	ECO route.ECOStats

	// Cache introspects the pair-coupling cache at flow end: table
	// occupancy and the evaluations it bypassed. Under the batch scheduler
	// the cache is shared by the batch, so both reflect all cells so far
	// and are schedule-dependent — reporting only, never part of the
	// determinism fingerprint.
	Cache keff.CacheInfo

	Runtime time.Duration

	// Phases is Runtime split across the paper's phases (observational
	// only — timings never enter the deterministic tables or CSV).
	Phases obs.PhaseTimes
}

// RefineStats reports how Phase III decomposed onto the worker pool
// (DESIGN.md §7): pass 1's conflict-graph waves and pass 2's speculative
// relax-then-accept traffic. Like every engine counter, these describe
// throughput structure only — results are byte-identical at any worker
// count.
type RefineStats struct {
	Waves     int // pass-1 repair waves (conflict-graph barriers)
	MaxWave   int // nets in the largest wave — the available parallelism
	MaxColors int // most classes any wave's conflict-graph coloring needed
	Relaxed   int // pass-2 instances speculatively re-solved
	Accepted  int // pass-2 relaxations kept at the acceptance barrier
	Reverted  int // pass-2 relaxations undone (shield count or violation)

	// Incremental-barrier bookkeeping (DESIGN.md §10). All three are pure
	// functions of the chip state, so they are byte-identical at any
	// worker count like every other counter here.
	Refreshed    int // per-net LSK refreshes the violation tracker ran
	GraphDropped int // conflict-graph vertices dropped between waves
	GraphAdded   int // conflict-graph vertices added between waves
}

// AreaOverheadPct returns the percentage area increase of o versus base —
// how Table 3's parenthesized numbers are computed.
func (o *Outcome) AreaOverheadPct(base *Outcome) float64 {
	b := base.Area.Product()
	if b == 0 {
		return 0
	}
	return (o.Area.Product() - b) / b * 100
}

// WLOverheadPct returns the percentage wirelength increase versus base —
// Table 2's parenthesized numbers.
func (o *Outcome) WLOverheadPct(base *Outcome) float64 {
	if base.TotalWL == 0 {
		return 0
	}
	return float64(o.TotalWL-base.TotalWL) / float64(base.TotalWL) * 100
}

// Detail renders the multi-line stats block behind gsino -v, each line
// prefixed (the CLI indents under its table row). The artifact, ECO and
// Phase III lines appear only when that machinery ran. Timings appear only
// here and in sched.Result.Summary — never in the deterministic tables or
// CSV.
func (o *Outcome) Detail(prefix string) string {
	var b strings.Builder
	p := o.Phases
	fmt.Fprintf(&b, "%sphases: route %s, order %s, refine %s (total %s)\n",
		prefix, p.Route.Round(time.Millisecond), p.Order.Round(time.Millisecond),
		p.Refine.Round(time.Millisecond), o.Runtime.Round(time.Millisecond))
	c := o.Congestion
	fmt.Fprintf(&b, "%sdensity avg H/V %.2f/%.2f, max %.2f/%.2f, overflowed regions %d/%d, segs %d\n",
		prefix, c.AvgHDensity, c.AvgVDensity, c.MaxH, c.MaxV, c.OverflowedH, c.OverflowedV, o.SegTracks)
	e := o.Engine
	fmt.Fprintf(&b, "%sengine: %d workers, %d instances solved (%d tracks), %d tasks in %d waves, coupling cache %.1f%% hit\n",
		prefix, e.Workers, e.Jobs, e.Tracks, e.Tasks, e.Waves, e.HitRate()*100)
	v := o.Eval
	fmt.Fprintf(&b, "%seval pool: %d binds, %d loads, %d incremental edits, %d rollbacks\n",
		prefix, v.Binds, v.Loads, v.Edits, v.Rollbacks)
	k := o.Cache
	fmt.Fprintf(&b, "%spair cache: %d geometries (sep <= %d, ret <= %d), %d evaluations outside the table\n",
		prefix, k.Dense, k.SepBound, k.RetBound, k.Overflow)
	r := o.Route
	fmt.Fprintf(&b, "%sphase I: %d routing shards (largest %d nets), seeding in %d chunks, %d nets reconciled in %d rounds (%d components, largest %d)\n",
		prefix, r.Shards, r.LargestShard, r.SeedChunks,
		r.Reconciled, r.ReconcileRounds, r.ReconcileComponents, r.LargestComponent)
	if a := o.Artifact; a.Hits+a.Misses > 0 {
		fmt.Fprintf(&b, "%sartifacts: %d hits, %d misses, %d evictions\n",
			prefix, a.Hits, a.Misses, a.Evictions)
	}
	if d := o.Artifact.Disk; d.Total() > 0 {
		fmt.Fprintf(&b, "%sartifact disk: %d hits, %d misses, %d corrupt, %d writes (%d write errors)\n",
			prefix, d.Hits, d.Misses, d.Corrupt, d.Writes, d.WriteErrors)
	}
	if eco := o.ECO; eco.EditedNets > 0 || eco.TilesInvalid+eco.TilesReused > 0 {
		fmt.Fprintf(&b, "%seco: %d nets edited, %d/%d tiles invalidated, %d nets re-routed (%d reused)\n",
			prefix, eco.EditedNets, eco.TilesInvalid, eco.TilesInvalid+eco.TilesReused, eco.NetsRerouted, eco.NetsReused)
	}
	if p3 := o.Refine; p3.Waves > 0 || o.Refinements > 0 || p3.Relaxed > 0 {
		fmt.Fprintf(&b, "%sphase III: %d repair waves (largest %d nets, %d colors max), %d re-solves; pass 2: %d relaxed, %d accepted, %d reverted\n",
			prefix, p3.Waves, p3.MaxWave, p3.MaxColors, o.Refinements, p3.Relaxed, p3.Accepted, p3.Reverted)
		fmt.Fprintf(&b, "%sbarriers: %d net refreshes, conflict graph -%d/+%d vertices between waves\n",
			prefix, p3.Refreshed, p3.GraphDropped, p3.GraphAdded)
	}
	return b.String()
}

// Runner executes flows over one design.
type Runner struct {
	params Params
	design *Design

	model    *keff.Model
	budgeter *budget.Budgeter
	sens     netlist.Sensitivity
	eng      *engine.Engine

	trace *obs.Tracer
	lane  obs.Lane

	// eco, when set (NewECORunner), lets routeAll resume from the base
	// design's warm artifact instead of routing the edited design from
	// scratch; ecoLast holds the most recent resume's accounting until the
	// flow collects it into its Outcome.
	eco     *ecoResume
	ecoLast route.ECOStats
}

// ecoResume is the incremental-re-solve context of an ECO runner: the
// routing requests of the unedited base design, from which routeAll
// derives the warm artifact's key.
type ecoResume struct {
	baseNets []route.Net
}

// NewRunner validates the design and prepares shared state.
func NewRunner(d *Design, p Params) (*Runner, error) {
	if d == nil || d.Nets == nil || d.Grid == nil {
		return nil, fmt.Errorf("core: incomplete design")
	}
	if err := d.Nets.Validate(); err != nil {
		return nil, err
	}
	if p.VThreshold == 0 {
		p.VThreshold = 0.15
	}
	b := &budget.Budgeter{Table: keff.DefaultTable(), VThreshold: p.VThreshold}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	model := keff.NewModel(tech.Default())
	lane := p.TraceLane
	if lane == 0 && p.Trace.Enabled() {
		lane = p.Trace.Lane("flow " + d.Name)
	}
	return &Runner{
		params:   p,
		design:   d,
		model:    model,
		budgeter: b,
		sens:     d.Nets.Sensitivity,
		eng:      engine.New(engine.Config{Workers: p.Workers, Model: model, Cache: p.Cache, Trace: p.Trace}),
		trace:    p.Trace,
		lane:     lane,
	}, nil
}

// ApplyDelta returns the edited design delta(base): same name, grid and
// rate — an ECO changes nets, not the floorplan. Every moved or added pin
// must lie on the chip, [0, ChipW] × [0, ChipH]: the router would clamp an
// off-chip pin into an edge region, but budgets and intra-region spans use
// the raw microns.
func ApplyDelta(base *Design, delta artifact.Delta) (*Design, error) {
	if base == nil || base.Nets == nil || base.Grid == nil {
		return nil, fmt.Errorf("core: incomplete base design")
	}
	w, h := base.Grid.ChipW(), base.Grid.ChipH()
	onChip := func(pins []netlist.Pin) error {
		for _, p := range pins {
			if !(p.Loc.X >= 0 && p.Loc.X <= w && p.Loc.Y >= 0 && p.Loc.Y <= h) {
				return fmt.Errorf("pin (%g, %g) is off the %g x %g um chip", p.Loc.X, p.Loc.Y, w, h)
			}
		}
		return nil
	}
	for _, m := range delta.Move {
		if err := onChip(m.Pins); err != nil {
			return nil, fmt.Errorf("core: delta move of net %d: %w", m.ID, err)
		}
	}
	for _, a := range delta.Add {
		if err := onChip(a.Pins); err != nil {
			return nil, fmt.Errorf("core: delta add %q: %w", a.Name, err)
		}
	}
	edited, err := delta.Apply(base.Nets)
	if err != nil {
		return nil, err
	}
	return &Design{Name: base.Name, Nets: edited, Grid: base.Grid, Rate: base.Rate}, nil
}

// NewECORunner prepares a runner for the edited design ApplyDelta(base,
// delta) and, when p.Artifacts holds the base design's routed artifact,
// Phase I resumes incrementally from it — re-draining only the tiles the
// edit invalidates — instead of routing from scratch. The flow results are
// byte-identical either way; only the work differs.
func NewECORunner(base *Design, delta artifact.Delta, p Params) (*Runner, error) {
	d, err := ApplyDelta(base, delta)
	if err != nil {
		return nil, err
	}
	r, err := NewRunner(d, p)
	if err != nil {
		return nil, err
	}
	r.eco = &ecoResume{baseNets: routeNetsFor(base)}
	return r, nil
}

// Run executes the named flow.
func (r *Runner) Run(f Flow) (*Outcome, error) {
	return r.RunContext(context.Background(), f)
}

// RunContext executes the named flow under a context: cancellation stops
// the region-solve engine between instances and aborts the flow.
func (r *Runner) RunContext(ctx context.Context, f Flow) (*Outcome, error) {
	switch f {
	case FlowIDNO, FlowISINO, FlowGSINO:
		return r.run(ctx, f)
	}
	return nil, fmt.Errorf("core: unknown flow %q", f)
}
