package core

import (
	"context"
	"sort"

	"repro/internal/engine"
)

// Phase III's wave schedule (DESIGN.md §7). Pass 1 repeats: derive the
// conflict graph over the violating nets, color it, and repair the first
// color class — the greedy maximal independent set of the severity order —
// as one pool batch. Pass 2 speculates every relax candidate in parallel
// against a frozen snapshot, then accepts serially in density order.
// Every parallel section mutates only task-private state and every
// decision happens at a barrier over deterministic inputs, so the outcome
// is byte-identical at any worker count, one included.

// refinePass1 eliminates crosstalk violations in conflict-graph waves over
// tr's violators. Each wave repairs a maximal independent set of the most
// severe violators concurrently; at the barrier, only the nets incident to
// the repaired instances have their violation state refreshed
// (violTracker), and the next wave's graph is derived from the flushed
// tracker (waveNodes), so later waves see the repaired state exactly as a
// serial execution would — bit for bit, without an O(nets × terms)
// resweep. Nets whose repair loop ends without meeting the budget are
// marked in unfixable (one flag per net) and leave the graph.
func (st *chipState) refinePass1(ctx context.Context, tr *violTracker, unfixable []bool, stats *refineStats) error {
	maxWaves := 4*tr.count() + 16
	dropped, added := 0, 0
	nodes := waveNodes(tr, unfixable, st.waves[0])
	st.waves[0] = nodes
	for wave := 0; wave < maxWaves && len(nodes) > 0; wave++ {
		classes := colorConflicts(nodes, &st.colors)
		if len(classes) > stats.MaxColors {
			stats.MaxColors = len(classes)
		}
		batch := classes[0]
		stats.Waves++
		if len(batch) > stats.MaxWave {
			stats.MaxWave = len(batch)
		}

		type netResult struct {
			fixed    bool
			resolves int
			touched  []*regionInst // instances this net's repair re-solved
		}
		results := make([]netResult, len(batch))
		tasks := make([]func(*engine.Worker) error, len(batch))
		for i := range batch {
			i, net := i, batch[i].net
			tasks[i] = func(w *engine.Worker) error {
				fixed, resolves, touched, err := st.repairNet(ctx, net, w)
				results[i] = netResult{fixed: fixed, resolves: resolves, touched: touched}
				return err
			}
		}
		wsp := st.r.trace.Start(st.r.lane, "refine", "repair wave").
			Arg("wave", int64(wave)).Arg("nets", int64(len(batch))).Arg("colors", int64(len(classes)))
		err := st.r.eng.RunOn(ctx, tasks)
		wsp.End()
		if err != nil {
			return err
		}
		for i := range batch {
			stats.resolves += results[i].resolves
			if !results[i].fixed {
				unfixable[batch[i].net] = true
			}
		}

		// Barrier bookkeeping: each repaired net mutated exactly the
		// instances it re-solved (a net's LSK reads only lens and k, and k
		// changes only through apply), so the nets incident to those
		// instances are the only ones whose violation state can have moved
		// (DESIGN.md §10). Touching the re-solved instances — not the whole
		// batch-net footprints — keeps the dirty set proportional to the
		// wave's actual mutations. The next graph is derived here, after
		// every barrier including the last, so churn counts each barrier's
		// changes even when the loop stops at maxWaves.
		bsp := st.r.trace.Start(st.r.lane, "refine", "barrier update").Arg("wave", int64(wave))
		for i := range batch {
			for _, in := range results[i].touched {
				tr.touchInst(in)
			}
		}
		tr.flush()
		next := waveNodes(tr, unfixable, st.waves[(wave+1)%2])
		st.waves[(wave+1)%2] = next
		d, a := churn(nodes, next)
		dropped, added, nodes = dropped+d, added+a, next
		bsp.End()
	}
	stats.unfixable = tr.count()
	stats.GraphDropped += dropped
	stats.GraphAdded += added
	return nil
}

// refinePass2 reduces congestion: every overfull shielded instance is
// speculatively re-solved in parallel with its nets' slack granted as
// looser bounds (one wave, all candidates reading the same frozen
// snapshot), then the speculative solutions are accepted serially from the
// most congested instance down. Acceptance re-checks the global violation
// state live, so a plan whose slack an earlier acceptance consumed is
// simply reverted — "until no reduction on the slacks is possible without
// causing crosstalk violations" within one bounded sweep.
func (st *chipState) refinePass2(ctx context.Context, tr *violTracker, stats *refineStats) error {
	if tr.count() > 0 {
		// Acceptance requires a violation-free chip, so with unfixable nets
		// left over from pass 1 every plan would be speculated and then
		// reverted — skip the wave outright (byte-identical chip state).
		return nil
	}
	order := append([]*regionInst(nil), st.orderd...)
	sort.SliceStable(order, func(a, b int) bool { return st.density(order[a]) > st.density(order[b]) })
	var cands []*regionInst
	for _, in := range order {
		if st.density(in) <= 1 || in.sol == nil || in.sol.NumShields() == 0 {
			continue
		}
		cands = append(cands, in)
	}
	if len(cands) == 0 {
		return nil
	}

	plans := make([]relaxPlan, len(cands))
	tasks := make([]func(*engine.Worker) error, len(cands))
	for i := range cands {
		i, in := i, cands[i]
		tasks[i] = func(w *engine.Worker) error {
			p, err := st.speculateRelax(tr, in, w)
			plans[i] = p
			return err
		}
	}
	ssp := st.r.trace.Start(st.r.lane, "refine", "pass 2: speculate").Arg("candidates", int64(len(cands)))
	err := st.r.eng.RunOn(ctx, tasks)
	ssp.End()
	if err != nil {
		return err
	}

	asp := st.r.trace.Start(st.r.lane, "refine", "pass 2: accept")
	defer asp.End()
	for i := range plans {
		if !plans[i].changed {
			continue
		}
		stats.resolves++
		stats.Relaxed++
		if st.acceptOrRevert(tr, &plans[i]) {
			stats.Accepted++
		} else {
			stats.Reverted++
		}
	}
	return nil
}
