package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/artifact"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/orderutil"
	"repro/internal/route"
	"repro/internal/sino"
)

// instKey addresses one SINO instance: a region's track stack in one
// routing direction.
type instKey struct {
	region int
	horz   bool
}

// segTerm is one net's presence in one instance.
type segTerm struct {
	inst *regionInst
	seg  int // index within the instance
}

// regionInst is the mutable per-region-direction state shared by Phase II
// and Phase III.
type regionInst struct {
	key  instKey
	ord  int           // index in chipState.orderd — the conflict-graph id
	segs []sino.Seg    // segment list (Kth mutable during refinement)
	lens []geom.Micron // per-segment length inside this region
	nets []int         // global net id per segment

	sol *sino.Solution
	k   []float64      // per-segment total coupling under sol
	rel *sino.Relation // sensitivity snapshot, taken at the first repair
}

// chipState is a routed, SINO-solved chip.
type chipState struct {
	r      *Runner
	trees  []route.Tree
	wl     []geom.Micron // per net routed wirelength
	insts  map[instKey]*regionInst
	orderd []*regionInst // deterministic iteration order

	terms  [][]segTerm // per net: its instance memberships
	lskb   []float64   // per net LSK budget
	routed *route.Result
}

// routeNetsFor converts a design's netlist into router requests.
func routeNetsFor(d *Design) []route.Net {
	g := d.Grid
	nets := d.Nets.Nets
	sens := d.Nets.Sensitivity
	out := make([]route.Net, len(nets))
	for i := range nets {
		pins := make([]geom.Point, len(nets[i].Pins))
		for j, p := range nets[i].Pins {
			pins[j] = g.RegionOf(p.Loc)
		}
		out[i] = route.Net{ID: i, Pins: pins, Rate: sens.Rate(i)}
	}
	return out
}

// netsForRouting converts the runner's netlist into router requests.
func (r *Runner) netsForRouting() []route.Net { return routeNetsFor(r.design) }

// routeAll runs the ID router — Phase I — sharded across the engine's
// worker pool, with router seeding itself chunked onto the same pool
// (route.NewRouterOn). The tile decomposition and the seeding chunking
// are fixed functions of the design, so the routing result is
// byte-identical at every worker count.
//
// With an artifact store (Params.Artifacts), the route is content-
// addressed first: a hit skips Phase I entirely and returns the sealed
// result; a miss routes, captures the resumable drain state, and
// publishes for every later flow, runner, or batch cell with the same
// problem. An ECO runner additionally probes for its base design's warm
// artifact and, when present, re-solves only the invalidated tiles
// (route.RunShardedResume). All three paths return identical bytes, and
// whatever the store returns is checked against the design's grid and nets
// before any later phase indexes it.
func (r *Runner) routeAll(ctx context.Context, shieldAware bool) (*route.Result, error) {
	cfg := route.Config{
		Alpha: r.params.Alpha, Beta: r.params.Beta, Gamma: r.params.Gamma,
		ShieldAware: shieldAware,
	}
	scfg := route.ShardConfig{Trace: r.trace, Lane: r.lane}
	store := r.params.Artifacts
	if store == nil {
		ssp := r.trace.Start(r.lane, "route", "router seeding")
		router, err := route.NewRouterOn(ctx, r.design.Grid, cfg, r.netsForRouting(), r.eng)
		ssp.End()
		if err != nil {
			return nil, err
		}
		return router.RunSharded(ctx, r.eng, scfg)
	}

	nets := r.netsForRouting()
	key := artifact.KeyFor(r.design.Grid, cfg, scfg, nets)
	lsp := r.trace.Start(r.lane, "route", "artifact lookup")
	art, _, err := store.Do(ctx, key, func(ctx context.Context) (*artifact.Artifact, error) {
		if r.eco != nil {
			baseKey := artifact.KeyFor(r.design.Grid, cfg, scfg, r.eco.baseNets)
			if base := store.Peek(baseKey); base != nil {
				res, ds, es, err := route.RunShardedResume(ctx, r.design.Grid, cfg, nets, r.eng, scfg, base.Drain())
				if err != nil {
					return nil, err
				}
				r.ecoLast = es
				return artifact.Seal(key, res, ds), nil
			}
		}
		ssp := r.trace.Start(r.lane, "route", "router seeding")
		router, err := route.NewRouterOn(ctx, r.design.Grid, cfg, nets, r.eng)
		ssp.End()
		if err != nil {
			return nil, err
		}
		res, ds, err := router.RunShardedState(ctx, r.eng, scfg)
		if err != nil {
			return nil, err
		}
		return artifact.Seal(key, res, ds), nil
	})
	lsp.End()
	if err != nil {
		return nil, err
	}
	res, err := art.Result()
	if err != nil {
		return nil, err
	}
	if err := res.Validate(r.design.Grid, nets); err != nil {
		return nil, fmt.Errorf("core: routing artifact %s: %w", key, err)
	}
	return res, nil
}

// budgetMode selects how per-segment bounds are derived.
type budgetMode int

const (
	// budgetManhattan is Phase I's uniform partitioning over the
	// source→sink Manhattan distance (GSINO; optimistic under detours).
	budgetManhattan budgetMode = iota
	// budgetTreeLength budgets over the actual routed tree length (iSINO,
	// which has no refinement phase to clean up optimism).
	budgetTreeLength
)

// redistributeByCongestion implements the paper's §5 future-work idea of
// non-uniform crosstalk budgeting: each net's LSK budget is re-partitioned
// across its regions in proportion to local congestion, so congested
// regions receive loose bounds (few shields, which would not fit) and
// quiet regions absorb the tight ones (shields are cheap there). The
// redistribution preserves the net's total budget — Σ l_r·Kth_r stays at
// the uniform partition's level — whenever the clamp band allows it: terms
// pinned at the budgeter's floor or ceiling keep their clamped value and
// the remaining terms renormalize to absorb the difference. Only when every
// term pins (the uniform total itself lies outside the achievable band)
// does the total saturate at the band edge.
func (st *chipState) redistributeByCongestion() {
	g := st.r.design.Grid
	for net := range st.terms {
		terms := st.terms[net]
		if len(terms) < 2 {
			continue
		}
		var weighted, uniformTotal float64
		phis := make([]float64, len(terms))
		for i, t := range terms {
			var den float64
			if t.inst.key.horz {
				den = float64(len(t.inst.segs)) / float64(g.HC)
			} else {
				den = float64(len(t.inst.segs)) / float64(g.VC)
			}
			phis[i] = 0.5 + den // congested regions earn looser bounds
			l := float64(t.inst.lens[t.seg])
			weighted += l * phis[i]
			uniformTotal += l * t.inst.segs[t.seg].Kth
		}
		if weighted <= 0 {
			continue
		}
		// Clamping individual terms breaks the naive proportional rescale,
		// so solve for the preserving scale directly: s ↦ Σ l·Clamp(phi·s)
		// is continuous and nondecreasing (phi > 0), ranging from the
		// all-floor total at s = 0 to the all-ceiling total once s clears
		// ceil/min(phi) — and the uniform total always lies in that range,
		// because the uniform per-term bounds were themselves clamped into
		// the band. Bisection is deterministic and immune to the mixed
		// floor/ceiling pinning that defeats fixed-point rescaling when the
		// band is narrow.
		clampedTotal := func(s float64) float64 {
			sum := 0.0
			for i, t := range terms {
				sum += float64(t.inst.lens[t.seg]) * st.r.budgeter.Clamp(phis[i]*s)
			}
			return sum
		}
		minPhi := phis[0]
		for _, phi := range phis[1:] {
			if phi < minPhi {
				minPhi = phi
			}
		}
		sLo, sHi := 0.0, st.r.budgeter.Clamp(math.Inf(1))/minPhi
		scale := sHi
		if clampedTotal(sLo) < uniformTotal && uniformTotal < clampedTotal(sHi) {
			for iter := 0; iter < 64; iter++ {
				mid := (sLo + sHi) / 2
				if clampedTotal(mid) < uniformTotal {
					sLo = mid
				} else {
					sHi = mid
				}
			}
			scale = sHi
		} else if clampedTotal(sLo) >= uniformTotal {
			scale = sLo // target at or below the all-floor total: saturate low
		}
		for i, t := range terms {
			t.inst.segs[t.seg].Kth = st.r.budgeter.Clamp(phis[i] * scale)
		}
	}
}

// buildState maps routed trees into per-region SINO instances.
func (r *Runner) buildState(res *route.Result, mode budgetMode) *chipState {
	g := r.design.Grid
	nets := r.design.Nets.Nets
	st := &chipState{
		r:      r,
		trees:  res.Trees,
		wl:     make([]geom.Micron, len(nets)),
		insts:  make(map[instKey]*regionInst),
		terms:  make([][]segTerm, len(nets)),
		lskb:   make([]float64, len(nets)),
		routed: res,
	}

	for i := range nets {
		tree := &res.Trees[i]
		st.wl[i] = tree.WirelengthUM(g)
		st.lskb[i] = r.budgeter.LSKBudget()

		var kth float64
		switch mode {
		case budgetManhattan:
			kth = r.budgeter.UniformNet(&nets[i])
		case budgetTreeLength:
			kth = r.budgeter.ForLength(st.wl[i])
		}

		// Per-region incidence counts: half of each incident edge's length
		// lies inside the region.
		hInc := make(map[geom.Point]int)
		vInc := make(map[geom.Point]int)
		for _, e := range tree.Edges {
			if e.Horizontal() {
				hInc[e.From]++
				hInc[e.To]++
			} else {
				vInc[e.From]++
				vInc[e.To]++
			}
		}
		if len(tree.Edges) == 0 {
			// Intra-region net: a short horizontal stub spanning its pins.
			span := nets[i].PinSpread()
			if span <= 0 {
				continue // coincident pins carry no coupling length
			}
			st.wl[i] = span
			p := g.RegionOf(nets[i].Pins[0].Loc)
			st.addSeg(st.inst(instKey{g.Index(p), true}), i, span, r.budgeter.ForLength(span))
			continue
		}
		// Iterate incidence maps in sorted region order: segment order within
		// an instance feeds solver and refinement tie-breaks, and map
		// iteration order would make full-chip results vary run to run (and
		// between worker counts, breaking the engine's determinism contract).
		for _, p := range sortedPoints(hInc) {
			l := geom.Micron(float64(hInc[p]) / 2 * float64(g.CellW))
			st.addSeg(st.inst(instKey{g.Index(p), true}), i, l, kth)
		}
		for _, p := range sortedPoints(vInc) {
			l := geom.Micron(float64(vInc[p]) / 2 * float64(g.CellH))
			st.addSeg(st.inst(instKey{g.Index(p), false}), i, l, kth)
		}
	}

	st.orderd = make([]*regionInst, 0, len(st.insts))
	for _, inst := range st.insts {
		st.orderd = append(st.orderd, inst)
	}
	sort.Slice(st.orderd, func(a, b int) bool {
		ka, kb := st.orderd[a].key, st.orderd[b].key
		if ka.region != kb.region {
			return ka.region < kb.region
		}
		return ka.horz && !kb.horz
	})
	for i, in := range st.orderd {
		in.ord = i
	}
	return st
}

// sortedPoints returns m's keys in (y, x) order.
func sortedPoints(m map[geom.Point]int) []geom.Point {
	return orderutil.SortedKeysFunc(m, func(a, b geom.Point) int {
		if a.Y != b.Y {
			return cmp.Compare(a.Y, b.Y)
		}
		return cmp.Compare(a.X, b.X)
	})
}

func (st *chipState) inst(k instKey) *regionInst {
	if in, ok := st.insts[k]; ok {
		return in
	}
	in := &regionInst{key: k}
	st.insts[k] = in
	return in
}

func (st *chipState) addSeg(in *regionInst, net int, l geom.Micron, kth float64) {
	in.segs = append(in.segs, sino.Seg{Net: net, Kth: kth, Rate: st.r.sens.Rate(net)})
	in.lens = append(in.lens, l)
	in.nets = append(in.nets, net)
	st.terms[net] = append(st.terms[net], segTerm{inst: in, seg: len(in.segs) - 1})
}

// instFor wraps a segment list into a solver instance — the single
// construction site for every solve the chip issues (Phase II batches,
// refinement repairs, pass-2 speculation). rel, when non-nil, is the
// sensitivity snapshot of segments with the same nets in the same order.
func (st *chipState) instFor(segs []sino.Seg, rel *sino.Relation) *sino.Instance {
	return &sino.Instance{Segs: segs, Sensitive: st.r.sens.Sensitive, Model: st.r.model, Rel: rel}
}

// job builds the engine job for one instance. The worker pool swaps in its
// own model clone and the shared coupling cache. A repair starts from the
// totals the instance holds and from its sensitivity snapshot, taken at
// its first repair (Phase III re-solves an instance many times; Phase II
// binds it once) on the repairing worker, which has sole use of the
// instance (conflict.go).
func (st *chipState) job(in *regionInst, mode engine.Mode) engine.Job {
	if mode != engine.ModeRepair {
		return engine.Job{Inst: st.instFor(in.segs, in.rel), Mode: mode}
	}
	if in.rel == nil {
		in.rel = sino.NewRelation(in.segs, st.r.sens.Sensitive)
	}
	return engine.Job{Inst: st.instFor(in.segs, in.rel), Mode: mode, Prev: in.sol, K: in.k}
}

// apply merges one engine result back into the instance.
func (in *regionInst) apply(res engine.Result) {
	in.sol = res.Sol
	in.k = res.Check.K
}

// solveAll runs the per-region solver for every instance — Phase II,
// sharded across the engine's workers. Results merge in instance order, so
// the outcome is identical at any worker count. netOrderOnly selects the
// NO baseline solver.
func (st *chipState) solveAll(ctx context.Context, netOrderOnly bool) error {
	mode := engine.ModeSolve
	if netOrderOnly {
		mode = engine.ModeNetOrder
	}
	jobs := make([]engine.Job, len(st.orderd))
	for i, in := range st.orderd {
		jobs[i] = st.job(in, mode)
	}
	results, err := st.r.eng.Run(ctx, jobs)
	if err != nil {
		return err
	}
	if err := engine.FirstError(results); err != nil {
		return err
	}
	for i := range results {
		st.orderd[i].apply(results[i])
	}
	return nil
}

// lskOf computes net i's LSK value under the current solutions (Eq. 1).
func (st *chipState) lskOf(i int) float64 {
	s := 0.0
	for _, t := range st.terms[i] {
		s += float64(t.inst.lens[t.seg]) * t.inst.k[t.seg]
	}
	return s
}

// violating returns the ids of nets whose LSK exceeds their budget, i.e.
// whose table-predicted noise exceeds the threshold.
func (st *chipState) violating() []int {
	var out []int
	for i := range st.terms {
		if st.lskOf(i) > st.lskb[i]*(1+1e-9) {
			out = append(out, i)
		}
	}
	return out
}

// usage returns per-region track demand including shields.
func (st *chipState) usage() *grid.Usage {
	u := grid.NewUsage(st.r.design.Grid)
	for _, in := range st.orderd {
		demand := float64(len(in.segs))
		if in.sol != nil {
			demand = float64(in.sol.NumTracks())
		}
		if in.key.horz {
			u.H[in.key.region] += demand
		} else {
			u.V[in.key.region] += demand
		}
	}
	return u
}

// shieldCount sums shields over all instances.
func (st *chipState) shieldCount() int {
	n := 0
	for _, in := range st.orderd {
		if in.sol != nil {
			n += in.sol.NumShields()
		}
	}
	return n
}

// segCount sums signal segments over all instances.
func (st *chipState) segCount() int {
	n := 0
	for _, in := range st.orderd {
		n += len(in.segs)
	}
	return n
}

// outcome assembles the flow metrics.
func (st *chipState) outcome(flow Flow) *Outcome {
	g := st.r.design.Grid
	o := &Outcome{
		Flow:        flow,
		Design:      st.r.design.Name,
		Rate:        st.r.design.Rate,
		TotalNets:   len(st.r.design.Nets.Nets),
		NominalArea: grid.Area{W: g.ChipW(), H: g.ChipH()},
		Shields:     st.shieldCount(),
		SegTracks:   st.segCount(),
	}
	for _, wl := range st.wl {
		o.TotalWL += wl
	}
	if o.TotalNets > 0 {
		o.AvgWL = o.TotalWL / geom.Micron(o.TotalNets)
	}
	o.Violations = len(st.violating())
	o.ViolationPct = float64(o.Violations) / float64(o.TotalNets) * 100
	u := st.usage()
	o.Area = g.RoutingArea(u)
	o.Congestion = g.Stats(u)
	o.Route = st.routed.Stats
	return o
}
