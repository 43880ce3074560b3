package core

import (
	"sort"

	"repro/internal/orderutil"
)

// Phase III pass 1's parallel decomposition rests on a conflict graph over
// the violating nets: two nets conflict iff their routes share a region
// instance, because repairing a net mutates exactly the instances it
// crosses (bounds, solutions, couplings) and reads nothing else. Nets with
// disjoint instance sets can therefore be repaired concurrently without
// any of them observing another's intermediate state — the independence
// structure DESIGN.md §7 builds the wave schedule on.

// conflictNode is one violating net in the conflict graph.
type conflictNode struct {
	net   int
	ratio float64 // violation severity: LSK over budget, > 1 for violators
	insts []int   // instance ids (regionInst.ord) the net's route crosses
}

// conflictNodes builds the graph nodes for the currently violating nets,
// excluding those already marked unfixable. One LSK sweep decides both
// membership (st.violating's criterion) and severity. Node order is net
// id ascending, but colorConflicts does not depend on it.
func (st *chipState) conflictNodes(unfixable map[int]bool) []conflictNode {
	var nodes []conflictNode
	for n := range st.terms {
		if unfixable[n] {
			continue
		}
		lsk := st.lskOf(n)
		if lsk <= st.lskb[n]*(1+1e-9) {
			continue
		}
		insts := make([]int, 0, len(st.terms[n]))
		for _, t := range st.terms[n] {
			insts = append(insts, t.inst.ord)
		}
		nodes = append(nodes, conflictNode{net: n, ratio: lsk / st.lskb[n], insts: insts})
	}
	return nodes
}

// netFootprint returns the instance ids net's route crosses — the node
// footprint. Instance membership never changes during refinement (only
// bounds, solutions, and couplings mutate), so a footprint is computed at
// most once per net and reused across graph updates.
func (st *chipState) netFootprint(net int) []int {
	insts := make([]int, 0, len(st.terms[net]))
	for _, t := range st.terms[net] {
		insts = append(insts, t.inst.ord)
	}
	return insts
}

// conflictGraph is the live conflict graph pass 1 maintains between
// waves: one vertex per violating net not in unfixable, with its severity
// ratio and static instance footprint. Instead of rebuilding from an
// O(nets × terms) sweep at every barrier, the graph is mutated in place
// from the violation tracker's change set: satisfied vertices drop, new
// violators join, and touched vertices refresh their severity. The
// rebuild-vs-incremental equivalence is fuzzed (FuzzConflictGraphUpdate)
// and the coloring consumed downstream is a pure function of the vertex
// set, so wave schedules stay bit-stable.
type conflictGraph struct {
	st        *chipState
	nodes     map[int]conflictNode
	unfixable map[int]bool // nets pass 1 gave up on; never vertices

	// dropped/added count vertex removals and insertions across updates —
	// deterministic bookkeeping surfaced through RefineStats.
	dropped, added int
}

// newConflictGraph builds the graph from the tracker's violating set,
// excluding unfixable nets; the graph keeps unfixable as its own set. It
// must observe a flushed tracker.
func newConflictGraph(st *chipState, tr *violTracker, unfixable map[int]bool) *conflictGraph {
	g := &conflictGraph{st: st, nodes: make(map[int]conflictNode), unfixable: unfixable}
	for net, v := range tr.viol {
		if !v || unfixable[net] {
			continue
		}
		g.nodes[net] = conflictNode{net: net, ratio: tr.lsk[net] / st.lskb[net], insts: st.netFootprint(net)}
	}
	return g
}

// update applies one barrier's change set: every net whose tracked LSK or
// violation membership changed (tr.flush's return) is re-derived against
// the flushed tracker — dropped when satisfied or unfixable, inserted or
// severity-refreshed otherwise. The result is identical to rebuilding
// from scratch because only changed nets can differ from their existing
// vertices (footprints are static and ratios are pure functions of the
// tracked LSK).
func (g *conflictGraph) update(tr *violTracker, changed []int) {
	for _, net := range changed {
		g.refresh(tr, net)
	}
}

// refresh re-derives one net's vertex from the flushed tracker and the
// unfixable set — call it directly for a net newly marked unfixable.
func (g *conflictGraph) refresh(tr *violTracker, net int) {
	old, present := g.nodes[net]
	if !tr.viol[net] || g.unfixable[net] {
		if present {
			delete(g.nodes, net)
			g.dropped++
		}
		return
	}
	ratio := tr.lsk[net] / g.st.lskb[net]
	if !present {
		g.nodes[net] = conflictNode{net: net, ratio: ratio, insts: g.st.netFootprint(net)}
		g.added++
		return
	}
	old.ratio = ratio
	g.nodes[net] = old
}

// snapshot returns the vertices in ascending net order — the same shape
// conflictNodes produced. colorConflicts is permutation-invariant, but a
// deterministic order keeps the snapshot directly comparable to a rebuilt
// graph in the equivalence tests.
func (g *conflictGraph) snapshot() []conflictNode {
	nets := orderutil.SortedKeys(g.nodes)
	nodes := make([]conflictNode, len(nets))
	for i, net := range nets {
		nodes[i] = g.nodes[net]
	}
	return nodes
}

// colorConflicts greedily partitions nodes into classes whose members are
// pairwise instance-disjoint. Nodes are considered in a deterministic
// severity order — ratio descending, net id ascending on ties — and each
// takes the lowest class containing no conflicting member, so class 0 is
// the greedy maximal independent set of the severity order (the most
// severe violators that can repair concurrently). The classes, and the
// member order within each class, are a pure function of the node set:
// permuting the input never changes the output.
func colorConflicts(nodes []conflictNode) [][]conflictNode {
	order := append([]conflictNode(nil), nodes...)
	sort.Slice(order, func(a, b int) bool {
		if order[a].ratio != order[b].ratio {
			return order[a].ratio > order[b].ratio
		}
		return order[a].net < order[b].net
	})
	var (
		classes [][]conflictNode
		used    []map[int]bool // per class: occupied instance ids
	)
	for _, nd := range order {
		c := 0
		for ; c < len(classes); c++ {
			conflict := false
			for _, id := range nd.insts {
				if used[c][id] {
					conflict = true
					break
				}
			}
			if !conflict {
				break
			}
		}
		if c == len(classes) {
			classes = append(classes, nil)
			used = append(used, make(map[int]bool))
		}
		classes[c] = append(classes[c], nd)
		for _, id := range nd.insts {
			used[c][id] = true
		}
	}
	return classes
}
