package core

import "slices"

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
	ratio float64   // violation severity: LSK over budget, > 1 for violators
	terms []segTerm // st.terms[net]: the instances the net's route crosses
}

// conflictNodes builds the graph nodes for the currently violating nets,
// excluding those already marked unfixable, from scratch: one LSK sweep
// decides both membership (st.violating's criterion) and severity. It is
// the oracle waveNodes is tested against.
func (st *chipState) conflictNodes(unfixable []bool) []conflictNode {
	var nodes []conflictNode
	for n := range st.terms {
		if unfixable[n] {
			continue
		}
		lsk := st.lskOf(n)
		if lsk <= st.lskb[n]*(1+1e-9) {
			continue
		}
		nodes = append(nodes, conflictNode{net: n, ratio: lsk / st.lskb[n], terms: st.terms[n]})
	}
	return nodes
}

// waveNodes derives the next wave's graph from the flushed tracker into
// buf, whose contents it replaces, and returns it: one node per net tr
// holds violating that is not unfixable, ascending by net, its severity
// read from the tracked LSK and its footprint from the net's terms, which
// refinement never changes. The derivation is one O(nets) scan, and every
// value it reads is the one a from-scratch sweep (conflictNodes)
// computes, bit for bit. Once buf has grown to the wave it allocates
// nothing.
func waveNodes(tr *violTracker, unfixable []bool, buf []conflictNode) []conflictNode {
	nodes := buf[:0]
	for net, v := range tr.viol {
		if v && !unfixable[net] {
			nodes = append(nodes, conflictNode{net: net, ratio: tr.lsk[net] / tr.st.lskb[net], terms: tr.st.terms[net]})
		}
	}
	return nodes
}

// churn counts the change between two consecutive waves' graphs, both
// ascending by net: dropped is the number of prev's nets next lacks, added
// the number of next's nets prev lacks. A barrier changes a net's
// membership at most once (it joins when it turns violating, and leaves
// when it stops or pass 1 gives up on it), so these are the vertex
// removals and insertions a graph kept live across the barrier would make.
func churn(prev, next []conflictNode) (dropped, added int) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i].net < next[j].net:
			dropped++
			i++
		case prev[i].net > next[j].net:
			added++
			j++
		default:
			i++
			j++
		}
	}
	return dropped + len(prev) - i, added + len(next) - j
}

// colorBuf is colorConflicts' working storage, which the chip state keeps
// across pass-1 waves, so that a wave colors without allocating once the
// buffers have grown to the largest wave: the nodes in severity order,
// the member lists of the classes, and one bitset row per class over the
// instance ids.
type colorBuf struct {
	order   []conflictNode
	classes [][]conflictNode
	used    []uint64 // class c's occupied instance ids: used[c*words:][:words]
}

// colorConflicts greedily partitions nodes into classes whose members are
// pairwise instance-disjoint. Nodes are considered in a deterministic
// severity order — ratio descending, net id ascending on ties — and each
// takes the lowest class containing no conflicting member, so class 0 is
// the greedy maximal independent set of the severity order (the most
// severe violators that can repair concurrently). The classes, and the
// member order within each class, are a pure function of the node set:
// permuting the input never changes the output. Each class marks the
// instances its members occupy in a bitset over the instance ids
// (regionInst.ord), all classes' bitsets in one array. The classes live
// in buf, so they are valid until its next call.
func colorConflicts(nodes []conflictNode, buf *colorBuf) [][]conflictNode {
	order := append(buf.order[:0], nodes...)
	slices.SortFunc(order, func(a, b conflictNode) int {
		if a.ratio != b.ratio {
			if a.ratio > b.ratio {
				return -1
			}
			return 1
		}
		return a.net - b.net
	})
	words := 0 // per class
	for _, nd := range nodes {
		for _, t := range nd.terms {
			words = max(words, t.inst.ord/64+1)
		}
	}
	classes, used := buf.classes[:0], buf.used[:0]
	for _, nd := range order {
		c := 0
		for ; c < len(classes); c++ {
			if !occupies(used[c*words:], nd.terms) {
				break
			}
		}
		if c == len(classes) {
			// A new class reuses the member list an earlier wave left in
			// its slot, and takes a cleared bitset row.
			classes = slices.Grow(classes, 1)[:c+1]
			classes[c] = classes[c][:0]
			used = slices.Grow(used, words)[:(c+1)*words]
			clear(used[c*words:])
		}
		classes[c] = append(classes[c], nd)
		set := used[c*words:]
		for _, t := range nd.terms {
			set[t.inst.ord/64] |= 1 << (t.inst.ord % 64)
		}
	}
	buf.order, buf.classes, buf.used = order, classes, used
	return classes
}

// occupies reports whether any of terms' instances is marked in set.
func occupies(set []uint64, terms []segTerm) bool {
	for _, t := range terms {
		if set[t.inst.ord/64]&(1<<(t.inst.ord%64)) != 0 {
			return true
		}
	}
	return false
}
