package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/orderutil"
	"repro/internal/sino"
)

// randomNodes generates a random net→instance incidence in the shape
// conflictNodes produces: unique net ids, severity ratios above 1, and a
// non-empty instance footprint per net over nInsts instances.
func randomNodes(rng *rand.Rand, nNets, nInsts, maxDeg int) []conflictNode {
	insts := instsByOrd(nInsts)
	nodes := make([]conflictNode, nNets)
	for i := range nodes {
		ids := make([]int, 1+rng.Intn(maxDeg))
		for j := range ids {
			ids[j] = rng.Intn(nInsts)
		}
		nodes[i] = conflictNode{net: i, ratio: 1 + rng.Float64()*5, terms: footprint(insts, ids...)}
	}
	return nodes
}

// instsByOrd returns n instances whose conflict-graph ids are 0 … n−1.
func instsByOrd(n int) []regionInst {
	insts := make([]regionInst, n)
	for i := range insts {
		insts[i].ord = i
	}
	return insts
}

// footprint returns terms over the instances with the given ids.
func footprint(insts []regionInst, ids ...int) []segTerm {
	terms := make([]segTerm, len(ids))
	for i, id := range ids {
		terms[i] = segTerm{inst: &insts[id]}
	}
	return terms
}

func nodesConflict(a, b *conflictNode) bool {
	for _, x := range a.terms {
		for _, y := range b.terms {
			if x.inst.ord == y.inst.ord {
				return true
			}
		}
	}
	return false
}

// checkColoring asserts the three conflict-graph invariants: classes cover
// every node exactly once, classes are pairwise instance-disjoint, and the
// greedy property holds (a node's class is the lowest it fits in, so it
// conflicts with some member of every lower class).
func checkColoring(t *testing.T, nodes []conflictNode, classes [][]conflictNode) {
	t.Helper()
	seen := make(map[int]bool)
	total := 0
	for _, cl := range classes {
		for i := range cl {
			if seen[cl[i].net] {
				t.Fatalf("net %d appears in more than one class", cl[i].net)
			}
			seen[cl[i].net] = true
			total++
		}
	}
	if total != len(nodes) {
		t.Fatalf("classes hold %d nodes, input had %d", total, len(nodes))
	}
	for c, cl := range classes {
		for i := range cl {
			for j := i + 1; j < len(cl); j++ {
				if nodesConflict(&cl[i], &cl[j]) {
					t.Fatalf("class %d: nets %d and %d share an instance", c, cl[i].net, cl[j].net)
				}
			}
		}
	}
	for c := 1; c < len(classes); c++ {
		for i := range classes[c] {
			for lower := 0; lower < c; lower++ {
				blocked := false
				for j := range classes[lower] {
					if nodesConflict(&classes[c][i], &classes[lower][j]) {
						blocked = true
						break
					}
				}
				if !blocked {
					t.Fatalf("net %d sits in class %d but does not conflict with class %d — not greedy-minimal",
						classes[c][i].net, c, lower)
				}
			}
		}
	}
}

func FuzzRefineConflictGraph(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(6), uint8(3))
	f.Add(int64(2), uint8(40), uint8(4), uint8(4)) // dense: few instances, many nets
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))  // singleton
	f.Add(int64(4), uint8(30), uint8(30), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nNets, nInsts, maxDeg uint8) {
		n := 1 + int(nNets)%60
		m := 1 + int(nInsts)%40
		d := 1 + int(maxDeg)%6
		rng := rand.New(rand.NewSource(seed))
		nodes := randomNodes(rng, n, m, d)

		classes := colorConflicts(nodes, new(colorBuf))
		checkColoring(t, nodes, classes)

		// Coloring must be a pure function of the node set: shuffling the
		// input changes nothing, down to the order within each class.
		shuffled := append([]conflictNode(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if !reflect.DeepEqual(classes, colorConflicts(shuffled, new(colorBuf))) {
			t.Fatal("coloring depends on input order")
		}
	})
}

// syntheticState hand-builds a minimal chipState — instances with random
// net/segment incidence, lengths, couplings, and budgets — sufficient for
// everything the violation tracker and the wave derivation read (terms,
// segment nets, lskb, lskOf). Budgets are scaled off the initial LSK so
// roughly half the nets start in violation.
func syntheticState(rng *rand.Rand, nNets, nInsts, maxDeg int) *chipState {
	st := &chipState{
		terms: make([][]segTerm, nNets),
		lskb:  make([]float64, nNets),
	}
	insts := make([]*regionInst, nInsts)
	for i := range insts {
		insts[i] = &regionInst{ord: i}
	}
	for net := 0; net < nNets; net++ {
		deg := 1 + rng.Intn(maxDeg)
		for d := 0; d < deg; d++ {
			in := insts[rng.Intn(nInsts)]
			in.Segs = append(in.Segs, sino.Seg{Net: net})
			in.lens = append(in.lens, geom.Micron(1+rng.Intn(500)))
			in.k = append(in.k, rng.Float64()*2)
			st.terms[net] = append(st.terms[net], segTerm{inst: in, seg: len(in.k) - 1})
		}
	}
	st.orderd = insts
	for net := 0; net < nNets; net++ {
		st.lskb[net] = st.lskOf(net) * (0.5 + rng.Float64())
		if st.lskb[net] <= 0 {
			st.lskb[net] = 1
		}
	}
	return st
}

// The live conflict graph pass 1 kept between waves before it derived
// each wave's graph from the violation tracker, kept verbatim (its vertex
// type renamed retiredNode) as the oracle for waveNodes and churn.

// retiredNode is one vertex of the retired live graph: its footprint is a
// copy of the instance ids out of the net's terms.
type retiredNode struct {
	net   int
	ratio float64 // violation severity: LSK over budget, > 1 for violators
	insts []int   // instance ids (regionInst.ord) the net's route crosses
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
// violators join, and touched vertices refresh their severity.
type conflictGraph struct {
	st        *chipState
	nodes     map[int]retiredNode
	unfixable map[int]bool // nets pass 1 gave up on; never vertices

	// dropped/added count vertex removals and insertions across updates —
	// deterministic bookkeeping surfaced through RefineStats.
	dropped, added int
}

// newConflictGraph builds the graph from the tracker's violating set,
// excluding unfixable nets; the graph keeps unfixable as its own set. It
// must observe a flushed tracker.
func newConflictGraph(st *chipState, tr *violTracker, unfixable map[int]bool) *conflictGraph {
	g := &conflictGraph{st: st, nodes: make(map[int]retiredNode), unfixable: unfixable}
	for net, v := range tr.viol {
		if !v || unfixable[net] {
			continue
		}
		g.nodes[net] = retiredNode{net: net, ratio: tr.lsk[net] / st.lskb[net], insts: st.netFootprint(net)}
	}
	return g
}

// update applies one barrier's change set: every net whose tracked LSK or
// violation membership changed is re-derived against the flushed tracker
// — dropped when satisfied or unfixable, inserted or severity-refreshed
// otherwise. The result is identical to rebuilding from scratch because
// only changed nets can differ from their existing vertices (footprints
// are static and ratios are pure functions of the tracked LSK).
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
		g.nodes[net] = retiredNode{net: net, ratio: ratio, insts: g.st.netFootprint(net)}
		g.added++
		return
	}
	old.ratio = ratio
	g.nodes[net] = old
}

// snapshot returns the vertices in ascending net order — the same shape
// conflictNodes produced.
func (g *conflictGraph) snapshot() []retiredNode {
	nets := orderutil.SortedKeys(g.nodes)
	nodes := make([]retiredNode, len(nets))
	for i, net := range nets {
		nodes[i] = g.nodes[net]
	}
	return nodes
}

// retired copies nodes' footprints out, in the retired graph's vertex form.
func retired(nodes []conflictNode) []retiredNode {
	out := make([]retiredNode, len(nodes))
	for i, nd := range nodes {
		out[i] = retiredNode{net: nd.net, ratio: nd.ratio, insts: make([]int, len(nd.terms))}
		for j, t := range nd.terms {
			out[i].insts[j] = t.inst.ord
		}
	}
	return out
}

// sameNodes reports the first difference between two vertex lists: net,
// ratio bits, or footprint.
func sameNodes(got, want []retiredNode) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.net != w.net || math.Float64bits(g.ratio) != math.Float64bits(w.ratio) {
			return fmt.Errorf("node %d is net %d at ratio %v, want net %d at %v", i, g.net, g.ratio, w.net, w.ratio)
		}
		if !slices.Equal(g.insts, w.insts) {
			return fmt.Errorf("net %d crosses instances %v, want %v", g.net, g.insts, w.insts)
		}
	}
	return nil
}

// runWaveScript drives one edit script through pass 1's barrier on a
// synthetic state, checking waveNodes after every flush against the
// retired live graph, kept current from the flush's change set as pass 1
// once did, and against conflictNodes' from-scratch sweep: the same nets,
// ratio bits and footprints, and the same coloring. The churn summed over
// consecutive derivations must equal the live graph's dropped and added
// counters. Like pass 1, it derives into two lists in turn, so each
// derivation overwrites the list of the wave before the one churn reads.
// It returns those sums.
//
// Each edit is three bytes (a, b, c). By a%4 it sets one coupling of
// instance b to an arbitrary value, raises every coupling of net b (how a
// net outside the graph comes to join it), marks net b unfixable while
// changing one of its couplings (a repair that moved the net without
// meeting its budget), or marks it unfixable without a change (a repair
// loop that stalled). When c%4 is 0 the edit shares its barrier with the
// next one.
func runWaveScript(t *testing.T, seed int64, nNets, nInsts, maxDeg uint8, script []byte) (dropped, added int) {
	t.Helper()
	n := 1 + int(nNets)%60
	m := 1 + int(nInsts)%40
	d := 1 + int(maxDeg)%6
	st := syntheticState(rand.New(rand.NewSource(seed)), n, m, d)

	tr := st.newViolTracker()
	unfixable := make([]bool, n)
	g := newConflictGraph(st, tr, make(map[int]bool))
	var waves [2][]conflictNode
	nodes := waveNodes(tr, unfixable, waves[0])
	waves[0] = nodes
	barrier := 0

	check := func(step int) {
		t.Helper()
		scratch := st.conflictNodes(unfixable)
		if err := sameNodes(retired(nodes), g.snapshot()); err != nil {
			t.Fatalf("step %d: waveNodes against the live graph: %v", step, err)
		}
		if err := sameNodes(retired(nodes), retired(scratch)); err != nil {
			t.Fatalf("step %d: waveNodes against the from-scratch sweep: %v", step, err)
		}
		want := colorConflicts(scratch, new(colorBuf))
		if got := colorConflicts(nodes, new(colorBuf)); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: waveNodes color into %d classes, the from-scratch sweep into %d", step, len(got), len(want))
		}
		checkColoring(t, nodes, want)
		if dropped != g.dropped || added != g.added {
			t.Fatalf("step %d: churn -%d/+%d, live graph -%d/+%d", step, dropped, added, g.dropped, g.added)
		}
		if gotV, wantV := tr.violating(), st.violating(); !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("step %d: tracker violating %v, oracle %v", step, gotV, wantV)
		}
	}
	check(-1)

	var marked []int // nets marked unfixable since the last barrier
	for step := 0; step+2 < len(script); step += 3 {
		a, b, c := script[step], script[step+1], script[step+2]
		net := int(b) % n
		switch a % 4 {
		case 0:
			in := st.orderd[int(b)%m]
			if len(in.k) > 0 {
				in.k[int(c)%len(in.k)] = float64(a^c) / 37.0
				tr.touchInst(in)
			}
		case 1:
			for _, tm := range st.terms[net] {
				tm.inst.k[tm.seg] = 3*tm.inst.k[tm.seg] + 1
				tr.touchInst(tm.inst)
			}
		case 2:
			tm := st.terms[net][int(c)%len(st.terms[net])]
			tm.inst.k[tm.seg] = float64(a^c) / 37.0
			tr.touchInst(tm.inst)
			fallthrough
		case 3:
			unfixable[net], g.unfixable[net] = true, true
			marked = append(marked, net)
		}
		if c%4 == 0 && step+5 < len(script) {
			continue
		}
		g.update(tr, flushChanged(tr))
		for _, net := range marked {
			g.refresh(tr, net)
		}
		marked = marked[:0]
		barrier++
		next := waveNodes(tr, unfixable, waves[barrier%2])
		waves[barrier%2] = next
		dd, aa := churn(nodes, next)
		dropped, added, nodes = dropped+dd, added+aa, next
		check(step)
	}
	return dropped, added
}

// FuzzWaveNodes runs random edit scripts through runWaveScript: after
// every barrier, the wave derived from the violation tracker must equal
// the retired live graph and a from-scratch sweep, and its churn the live
// graph's counters. This equivalence is what lets pass 1 drop the live
// graph with every RefineStats field unchanged.
func FuzzWaveNodes(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(6), uint8(3), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(2), uint8(40), uint8(4), uint8(4), []byte{7, 0, 9, 3, 3, 3, 11, 2, 2})
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), []byte{3, 0, 0})
	f.Add(int64(4), uint8(30), uint8(30), uint8(1), []byte{0, 200, 100, 3, 17, 5, 2, 8, 8, 1, 250, 3})
	f.Add(churnSeed.seed, churnSeed.nNets, churnSeed.nInsts, churnSeed.maxDeg, churnSeed.script)
	f.Fuzz(func(t *testing.T, seed int64, nNets, nInsts, maxDeg uint8, script []byte) {
		runWaveScript(t, seed, nNets, nInsts, maxDeg, script)
	})
}

// TestWaveNodesReusedBuffer: once a derivation's list has grown to the
// wave, deriving the wave again into it allocates nothing and gives the
// nodes a fresh list gives.
func TestWaveNodesReusedBuffer(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := syntheticState(rand.New(rand.NewSource(41)), 60, 40, 4)
	tr := st.newViolTracker()
	unfixable := make([]bool, len(st.terms))
	buf := waveNodes(tr, unfixable, nil)
	if len(buf) == 0 {
		t.Fatal("fixture has no violating net")
	}
	if allocs := testing.AllocsPerRun(20, func() { buf = waveNodes(tr, unfixable, buf) }); allocs != 0 {
		t.Errorf("warm waveNodes of %d nodes: %v allocations, want 0", len(buf), allocs)
	}
	if err := sameNodes(retired(buf), retired(waveNodes(tr, unfixable, nil))); err != nil {
		t.Fatalf("a reused list against a fresh one: %v", err)
	}
}

// churnSeed is a script whose barriers both drop vertices and add them:
// it raises the couplings of nets outside the graph until they violate.
// Real flows rarely add one (the wide-cold design's GSINO flow adds 1
// vertex against 182 drops), so the seeds must.
var churnSeed = struct {
	seed                  int64
	nNets, nInsts, maxDeg uint8
	script                []byte
}{5, 20, 8, 3, []byte{1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 3, 1, 1, 4, 1, 1, 5, 1, 0, 2, 9, 3, 6, 1, 2, 7, 1}}

// TestWaveChurnSeed pins churnSeed's reach: it must add vertices as well
// as drop them, or the derivation's added count goes unchecked.
func TestWaveChurnSeed(t *testing.T) {
	dropped, added := runWaveScript(t, churnSeed.seed, churnSeed.nNets, churnSeed.nInsts, churnSeed.maxDeg, churnSeed.script)
	if dropped == 0 || added == 0 {
		t.Fatalf("churnSeed churns -%d/+%d; want both counts above 0", dropped, added)
	}
}

// colorConflictsMap is the coloring colorConflicts replaced, kept verbatim
// as its oracle: one map of occupied instance ids per class.
func colorConflictsMap(nodes []conflictNode) [][]conflictNode {
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
			for _, t := range nd.terms {
				if used[c][t.inst.ord] {
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
		for _, t := range nd.terms {
			used[c][t.inst.ord] = true
		}
	}
	return classes
}

// TestColorConflictsMatchesMapForm pins the bitset coloring to the map
// form on random node sets: 0 to 300 nets over 1 to 400 instances (ids
// across several bitset words), footprints with repeated ids, and
// severity ties that only the net id breaks.
func TestColorConflictsMatchesMapForm(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		nodes := randomNodes(rng, rng.Intn(301), 1+rng.Intn(400), 1+rng.Intn(12))
		if trial%3 == 0 {
			for i := range nodes {
				nodes[i].ratio = float64(1 + rng.Intn(3))
			}
		}
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		if got, want := colorConflicts(nodes, new(colorBuf)), colorConflictsMap(nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %d nodes colored into %d classes, oracle %d", trial, len(nodes), len(got), len(want))
		}
	}
}

// TestColorConflictsReusedBuffer: coloring through one buffer kept across
// waves of every size, as the chip state keeps it, gives each wave the
// classes a fresh buffer gives, and once the buffer has grown a wave's
// coloring allocates nothing.
func TestColorConflictsReusedBuffer(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(31))
	var buf colorBuf
	var largest []conflictNode
	for trial := 0; trial < 200; trial++ {
		nodes := randomNodes(rng, rng.Intn(201), 1+rng.Intn(300), 1+rng.Intn(10))
		// Compared as lists: an empty wave's classes may be nil or empty.
		if got, want := colorConflicts(nodes, &buf), colorConflicts(nodes, new(colorBuf)); len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: a reused buffer colored %d nodes into %d classes, a fresh one into %d", trial, len(nodes), len(got), len(want))
		}
		if len(nodes) > len(largest) {
			largest = nodes
		}
	}
	colorConflicts(largest, &buf)
	if allocs := testing.AllocsPerRun(20, func() { colorConflicts(largest, &buf) }); allocs != 0 {
		t.Errorf("warm colorConflicts of %d nodes: %v allocations, want 0", len(largest), allocs)
	}
}

func TestColorConflictsSeverityOrder(t *testing.T) {
	// Within a class, members appear in severity order (ratio desc, net
	// asc) — that is the order the repair wave dispatches, and ties must
	// break on net id for determinism.
	insts := instsByOrd(3)
	nodes := []conflictNode{
		{net: 3, ratio: 2.0, terms: footprint(insts, 0)},
		{net: 1, ratio: 2.0, terms: footprint(insts, 1)},
		{net: 2, ratio: 5.0, terms: footprint(insts, 2)},
		{net: 0, ratio: 1.5, terms: footprint(insts, 0)}, // conflicts with net 3
	}
	classes := colorConflicts(nodes, new(colorBuf))
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2", len(classes))
	}
	var got []int
	for _, nd := range classes[0] {
		got = append(got, nd.net)
	}
	if want := []int{2, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("class 0 order = %v, want %v (ratio desc, net asc)", got, want)
	}
	if len(classes[1]) != 1 || classes[1][0].net != 0 {
		t.Errorf("class 1 = %+v, want the bumped net 0", classes[1])
	}
}

func TestConflictNodesFootprint(t *testing.T) {
	// conflictNodes must list exactly the violating nets (minus unfixable)
	// with their full instance footprint, so the disjointness the coloring
	// guarantees is disjointness of everything a repair can touch.
	_, st := ibmRefineFixture(t, 16, 0.5, 1, Params{})
	violating := st.violating()
	if len(violating) < 2 {
		t.Fatal("fixture has too few violators to exercise the graph")
	}
	nodes := st.conflictNodes(make([]bool, len(st.terms)))
	if len(nodes) != len(violating) {
		t.Fatalf("%d nodes for %d violating nets", len(nodes), len(violating))
	}
	for i, nd := range nodes {
		if nd.net != violating[i] {
			t.Fatalf("node %d is net %d, want %d", i, nd.net, violating[i])
		}
		if nd.ratio <= 1 {
			t.Errorf("net %d: severity ratio %g not above 1", nd.net, nd.ratio)
		}
		if len(nd.terms) != len(st.terms[nd.net]) {
			t.Fatalf("net %d: footprint %d instances, terms say %d", nd.net, len(nd.terms), len(st.terms[nd.net]))
		}
		for j, tm := range st.terms[nd.net] {
			if nd.terms[j] != tm {
				t.Fatalf("net %d footprint[%d] = inst ord %d, want %d", nd.net, j, nd.terms[j].inst.ord, tm.inst.ord)
			}
		}
	}

	// Marking a net unfixable removes exactly that node.
	skip := make([]bool, len(st.terms))
	skip[violating[0]] = true
	pruned := st.conflictNodes(skip)
	if len(pruned) != len(nodes)-1 {
		t.Fatalf("unfixable pruning left %d nodes, want %d", len(pruned), len(nodes)-1)
	}
	for _, nd := range pruned {
		if nd.net == violating[0] {
			t.Fatal("unfixable net still present in the graph")
		}
	}
}

func TestConflictWaveIsInstanceDisjoint(t *testing.T) {
	// Integration form of the coloring guarantee on a real chip state: the
	// first color class — the set pass 1 repairs concurrently — must be
	// pairwise instance-disjoint.
	_, st := ibmRefineFixture(t, 16, 0.5, 3, Params{})
	nodes := st.conflictNodes(make([]bool, len(st.terms)))
	if len(nodes) == 0 {
		t.Fatal("fixture has no violators")
	}
	classes := colorConflicts(nodes, new(colorBuf))
	wave := classes[0]
	used := make(map[int]int)
	for _, nd := range wave {
		for _, tm := range nd.terms {
			if prev, ok := used[tm.inst.ord]; ok {
				t.Fatalf("wave nets %d and %d share instance %d", prev, nd.net, tm.inst.ord)
			}
			used[tm.inst.ord] = nd.net
		}
	}
}
