package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/artifact"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
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
	key instKey
	ord int // index in chipState.orderd — the conflict-graph id

	// Instance is the solver's instance, passed to every job on it: Segs
	// is the segment list (Kth mutable during refinement), Rel the
	// sensitivity snapshot taken by the Phase II solve.
	sino.Instance
	lens []geom.Micron // per-segment length inside this region

	sol *sino.Solution
	k   []float64 // per-segment total coupling under sol
}

// chipState is a routed, SINO-solved chip.
type chipState struct {
	r      *Runner
	wl     []geom.Micron // per net routed wirelength
	orderd []*regionInst // by region, horizontal before vertical

	terms  [][]segTerm // per net: its instance memberships
	lskb   []float64   // per net LSK budget
	routed *route.Result

	colors colorBuf // Phase III pass 1's wave coloring, reused across waves
	// waves holds pass 1's wave graphs: wave w's in waves[w%2], so the
	// next wave's derivation leaves the one churn compares it with.
	waves [2][]conflictNode
}

// routeNetsFor converts a design's netlist into router requests. Every
// net's pin regions are carved from one array, each capped at its own.
func routeNetsFor(d *Design) []route.Net {
	g := d.Grid
	nets := d.Nets.Nets
	sens := d.Nets.Sensitivity
	n := 0
	for i := range nets {
		n += len(nets[i].Pins)
	}
	all := make([]geom.Point, n)
	out := make([]route.Net, len(nets))
	for i := range nets {
		pins := all[:len(nets[i].Pins):len(nets[i].Pins)]
		all = all[len(pins):]
		for j, p := range nets[i].Pins {
			pins[j] = g.RegionOf(p.Loc)
		}
		out[i] = route.Net{ID: i, Pins: pins, Rate: sens.Rate(i)}
	}
	return out
}

// netsForRouting converts the runner's netlist into router requests.
func (r *Runner) netsForRouting() []route.Net { return routeNetsFor(r.design) }

// designNets returns net(i): design net i as the router sees it — its
// id, rate and pin regions — in the form artifact.KeyOf and
// route.Result.Validate read, without the route.Net array. Every call
// reuses one pin buffer, so each net's pins are valid until the next call.
func designNets(d *Design) func(i int) (int, float64, []geom.Point) {
	g, nets, sens := d.Grid, d.Nets.Nets, d.Nets.Sensitivity
	var pins []geom.Point
	return func(i int) (int, float64, []geom.Point) {
		pins = pins[:0]
		for _, p := range nets[i].Pins {
			pins = append(pins, g.RegionOf(p.Loc))
		}
		return i, sens.Rate(i), pins
	}
}

// designKey is artifact.KeyFor(d.Grid, cfg, _, routeNetsFor(d)), hashed
// from designNets.
func designKey(d *Design, cfg route.Config) artifact.Key {
	return artifact.KeyOf(d.Grid, cfg, len(d.Nets.Nets), designNets(d))
}

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
// (route.RunShardedResume) from its drain state. A base whose drain
// section does not decode is discarded from the store (counted Corrupt,
// so the base's next compute writes it back), and the route runs from
// scratch. All three paths return identical bytes, and whatever the store
// returns is checked against the design's grid and nets before any later
// phase indexes it.
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

	key := designKey(r.design, cfg)
	lsp := r.trace.Start(r.lane, "route", "artifact lookup")
	art, _, err := store.Do(ctx, key, func(ctx context.Context) (*artifact.Artifact, error) {
		nets := r.netsForRouting()
		if r.ecoBase != nil {
			baseKey := designKey(r.ecoBase, cfg)
			if base := store.Peek(baseKey); base != nil {
				dsp := r.trace.Start(r.lane, "route", "drain decode")
				baseDS, err := base.Drain()
				if err != nil {
					dsp = dsp.Arg("corrupt", 1)
					store.Discard(baseKey)
				}
				dsp.End()
				if err == nil {
					res, ds, es, err := route.RunShardedResume(ctx, r.design.Grid, cfg, nets, r.eng, scfg, baseDS)
					if err != nil {
						return nil, err
					}
					r.ecoLast = es
					return artifact.Seal(key, res, ds), nil
				}
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
	if err := res.Validate(r.design.Grid, len(r.design.Nets.Nets), designNets(r.design)); err != nil {
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
				den = float64(len(t.inst.Segs)) / float64(g.HC)
			} else {
				den = float64(len(t.inst.Segs)) / float64(g.VC)
			}
			phis[i] = 0.5 + den // congested regions earn looser bounds
			l := float64(t.inst.lens[t.seg])
			weighted += l * phis[i]
			uniformTotal += l * t.inst.Segs[t.seg].Kth
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
			t.inst.Segs[t.seg].Kth = st.r.budgeter.Clamp(phis[i] * scale)
		}
	}
}

// buildState maps routed trees into per-region SINO instances. A net holds
// a track in each region at either end of its tree's edges, per direction,
// for half of each such edge's length; a net routed inside one region
// holds a horizontal stub spanning its pins there. Instances are ordered
// by region, horizontal before vertical; an instance's segments by net;
// and a net's terms horizontal before vertical, each by region. Segment
// order feeds solver and refinement tie-breaks and term order LSK sums,
// so the order is part of every flow's result.
//
// Instances live in dense arrays indexed by slot, 2·region for the
// horizontal instance and 2·region+1 for the vertical: one counting pass
// sizes every instance exactly, a pass over the nets fills the segments,
// and a sweep over the instances fills every net's terms.
func (r *Runner) buildState(res *route.Result, mode budgetMode) *chipState {
	g := r.design.Grid
	nets := r.design.Nets.Nets
	st := &chipState{
		r:      r,
		wl:     make([]geom.Micron, len(nets)),
		terms:  make([][]segTerm, len(nets)),
		lskb:   make([]float64, len(nets)),
		routed: res,
	}
	slot := func(p geom.Point, horz bool) int {
		if horz {
			return 2 * g.Index(p)
		}
		return 2*g.Index(p) + 1
	}
	// stubSlot is the slot of net i's intra-region stub, or -1 when the net
	// has edges or its pins coincide (no coupling length).
	stubSlot := func(i int) int {
		if len(res.Trees[i].Edges) > 0 || nets[i].PinSpread() <= 0 {
			return -1
		}
		return slot(g.RegionOf(nets[i].Pins[0].Loc), true)
	}

	// Count every instance's segments: one per net holding a track there
	// (seen holds the last net, plus one, that counted a slot).
	nslots := 2 * g.NumRegions()
	count := make([]int32, nslots)
	seen := make([]int32, nslots)
	for i := range nets {
		if s := stubSlot(i); s >= 0 {
			count[s]++
		}
		for _, e := range res.Trees[i].Edges {
			for _, s := range [2]int{slot(e.From, e.Horizontal()), slot(e.To, e.Horizontal())} {
				if seen[s] != int32(i+1) {
					seen[s] = int32(i + 1)
					count[s]++
				}
			}
		}
	}

	// Size every instance, in slot order, from shared backing arrays.
	ninst, nsegs := 0, 0
	for _, c := range count {
		if c > 0 {
			ninst++
			nsegs += int(c)
		}
	}
	insts := make([]regionInst, ninst)
	st.orderd = make([]*regionInst, ninst)
	inst := make([]*regionInst, nslots)
	segs := make([]sino.Seg, nsegs)
	lens := make([]geom.Micron, nsegs)
	sens := r.sens.Sensitive
	k, off := 0, 0
	for s, c := range count {
		if c == 0 {
			continue
		}
		end := off + int(c)
		in := &insts[k]
		*in = regionInst{key: instKey{region: s / 2, horz: s%2 == 0}, ord: k,
			Instance: sino.Instance{Segs: segs[off:off:end], Sensitive: sens, Model: r.model},
			lens:     lens[off:off:end]}
		st.orderd[k], inst[s] = in, in
		k, off = k+1, end
	}

	// Fill the segments in net order. inc counts the net's edge ends in
	// each slot, touched lists the slots it counted.
	lskb := r.budgeter.LSKBudget()
	inc := make([]int32, nslots)
	var touched []int
	for i := range nets {
		tree := &res.Trees[i]
		st.wl[i] = tree.WirelengthUM(g)
		st.lskb[i] = lskb
		if s := stubSlot(i); s >= 0 {
			span := nets[i].PinSpread()
			st.wl[i] = span
			st.addSeg(inst[s], i, span, r.budgeter.ForLength(span))
			continue
		}
		if len(tree.Edges) == 0 {
			continue
		}
		var kth float64
		switch mode {
		case budgetManhattan:
			kth = r.budgeter.UniformNet(&nets[i])
		case budgetTreeLength:
			kth = r.budgeter.ForLength(st.wl[i])
		}
		touched = touched[:0]
		for _, e := range tree.Edges {
			for _, s := range [2]int{slot(e.From, e.Horizontal()), slot(e.To, e.Horizontal())} {
				if inc[s] == 0 {
					touched = append(touched, s)
				}
				inc[s]++
			}
		}
		for _, s := range touched {
			// Half of each incident edge's length lies inside the region.
			cell := g.CellW
			if s%2 == 1 {
				cell = g.CellH
			}
			st.addSeg(inst[s], i, geom.Micron(float64(inc[s])/2*float64(cell)), kth)
			inc[s] = 0
		}
	}

	// Every net's terms: sweep the horizontal instances, then the vertical,
	// each in region order, appending each segment to its net's terms.
	nterms := make([]int, len(nets))
	for i := range segs {
		nterms[segs[i].Net]++
	}
	terms := make([]segTerm, nsegs)
	off = 0
	for i, n := range nterms {
		st.terms[i] = terms[off:off:(off + n)]
		off += n
	}
	for _, horz := range [2]bool{true, false} {
		for _, in := range st.orderd {
			if in.key.horz != horz {
				continue
			}
			for j := range in.Segs {
				n := in.Segs[j].Net
				st.terms[n] = append(st.terms[n], segTerm{inst: in, seg: j})
			}
		}
	}
	return st
}

func (st *chipState) addSeg(in *regionInst, net int, l geom.Micron, kth float64) {
	in.Segs = append(in.Segs, sino.Seg{Net: net, Kth: kth, Rate: st.r.sens.Rate(net)})
	in.lens = append(in.lens, l)
}

// job builds the engine job for one instance, on the instance it
// carries. Every job passes the instance's sensitivity snapshot, which its
// Phase II solve took on a worker and apply kept, so no instance is hashed
// twice; a repair also starts from the totals the instance holds, and
// writes its final totals back into them.
func (st *chipState) job(in *regionInst, mode engine.Mode) engine.Job {
	j := engine.Job{Inst: &in.Instance, Mode: mode}
	if mode == engine.ModeRepair {
		j.Prev, j.K = in.sol, in.k
	}
	return j
}

// apply merges one engine result back into the instance, keeping the
// relation the solve ran on (nil from the ID+NO solver, which the flow
// never re-solves).
func (in *regionInst) apply(res engine.Result) {
	in.sol, in.k, in.Rel = res.Sol, res.K, res.Rel
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
		demand := float64(len(in.Segs))
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
		n += len(in.Segs)
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
