package core

import (
	"context"
	"time"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/route"
)

// run executes one flow. The paper's three flows (§4) share every step
// and differ in four choices, all selected by the flow name:
//
//   - GSINO routes with shield-aware weights (Phase I) and locally refines
//     (Phase III), first eliminating the detour-induced violations, then
//     clawing back congestion;
//   - iSINO budgets each net over its routed tree length, since it has no
//     refinement phase to clean up the Manhattan budget's optimism;
//   - ID+NO runs net ordering only in each region — the conventional
//     baseline, blind to inductive crosstalk, whose violations Table 1
//     counts;
//   - GSINO redistributes budgets by congestion when
//     Params.CongestionBudgeting is set.
//
// ID+NO and iSINO route identically, so their wirelengths match; iSINO's
// shields inflate the routing area (Table 3's iSINO column).
//
// Each phase is timed (Outcome.Phases) and bracketed by a tracer span on
// the runner's lane. Both are observational: timings and spans never feed
// back into any algorithm and stay off the deterministic tables and CSV.
func (r *Runner) run(ctx context.Context, f Flow) (*Outcome, error) {
	start := time.Now()
	engBase, evalBase := r.eng.Stats(), r.eng.EvalStats()
	var artBase artifact.Stats
	if r.params.Artifacts != nil {
		artBase = r.params.Artifacts.Stats()
	}
	fsp := r.trace.Start(r.lane, "flow", "flow "+string(f))
	defer fsp.End()

	psp := r.trace.Start(r.lane, "phase", "phase I: route")
	res, err := r.routeAll(ctx, f == FlowGSINO)
	psp.End()
	phases := obs.PhaseTimes{Route: time.Since(start)}
	if err != nil {
		return nil, err
	}

	tOrder := time.Now()
	psp = r.trace.Start(r.lane, "phase", "phase II: order")
	mode := budgetManhattan
	if f == FlowISINO {
		mode = budgetTreeLength
	}
	st := r.buildState(res, mode)
	if f == FlowGSINO && r.params.CongestionBudgeting {
		st.redistributeByCongestion()
	}
	err = st.solveAll(ctx, f == FlowIDNO)
	psp.End()
	phases.Order = time.Since(tOrder)
	if err != nil {
		return nil, err
	}

	var refts refineStats
	if f == FlowGSINO {
		tRefine := time.Now()
		psp = r.trace.Start(r.lane, "phase", "phase III: refine")
		refts, err = st.refine(ctx)
		psp.End()
		phases.Refine = time.Since(tRefine)
		if err != nil {
			return nil, err
		}
	}

	o := st.outcome(f)
	o.Refinements, o.Unfixable, o.Refine = refts.resolves, refts.unfixable, refts.RefineStats
	o.Phases = phases
	o.Engine = r.eng.Stats().Sub(engBase)
	o.Eval = r.eng.EvalStats().Sub(evalBase)
	o.Cache = r.eng.Cache().Info()
	if r.params.Artifacts != nil {
		o.Artifact = r.params.Artifacts.Stats().Sub(artBase)
	}
	// The ECO accounting of a resumed Phase I is consumed so it never
	// bleeds into the next flow.
	o.ECO, r.ecoLast = r.ecoLast, route.ECOStats{}
	o.Runtime = time.Since(start)
	return o, nil
}
