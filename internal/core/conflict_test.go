package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
)

// randomNodes generates a random net→instance incidence in the shape
// conflictNodes produces: unique net ids, severity ratios above 1, and a
// non-empty instance footprint per net.
func randomNodes(rng *rand.Rand, nNets, nInsts, maxDeg int) []conflictNode {
	nodes := make([]conflictNode, nNets)
	for i := range nodes {
		deg := 1 + rng.Intn(maxDeg)
		insts := make([]int, deg)
		for j := range insts {
			insts[j] = rng.Intn(nInsts)
		}
		nodes[i] = conflictNode{net: i, ratio: 1 + rng.Float64()*5, insts: insts}
	}
	return nodes
}

func nodesConflict(a, b *conflictNode) bool {
	for _, x := range a.insts {
		for _, y := range b.insts {
			if x == y {
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

		classes := colorConflicts(nodes)
		checkColoring(t, nodes, classes)

		// Coloring must be a pure function of the node set: shuffling the
		// input changes nothing, down to the order within each class.
		shuffled := append([]conflictNode(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if !reflect.DeepEqual(classes, colorConflicts(shuffled)) {
			t.Fatal("coloring depends on input order")
		}
	})
}

// syntheticState hand-builds a minimal chipState — instances with random
// net/segment incidence, lengths, couplings, and budgets — sufficient for
// everything the violation tracker and conflict graph read (terms, lskb,
// lskOf, netFootprint). Budgets are scaled off the initial LSK so roughly
// half the nets start in violation.
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
			in.nets = append(in.nets, net)
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

// FuzzConflictGraphUpdate drives random edit scripts — coupling mutations
// and unfixable markings — through the incremental path (violTracker flush
// + conflictGraph.update, exactly as refinePass1's barrier does) and
// demands, after every edit, that the live graph equals a graph rebuilt
// from a fresh full sweep: same vertex set, same severities, same
// footprints (hence same edges), and — checked at script end — the same
// coloring. This is the rebuild-vs-incremental equivalence the wave
// schedule's bit-stability rests on.
func FuzzConflictGraphUpdate(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(6), uint8(3), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(2), uint8(40), uint8(4), uint8(4), []byte{7, 0, 9, 3, 3, 3, 11, 2, 2})
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), []byte{3, 0, 0})
	f.Add(int64(4), uint8(30), uint8(30), uint8(1), []byte{0, 200, 100, 3, 17, 5, 2, 8, 8, 1, 250, 3})
	f.Fuzz(func(t *testing.T, seed int64, nNets, nInsts, maxDeg uint8, script []byte) {
		n := 1 + int(nNets)%60
		m := 1 + int(nInsts)%40
		d := 1 + int(maxDeg)%6
		rng := rand.New(rand.NewSource(seed))
		st := syntheticState(rng, n, m, d)

		tr := st.newViolTracker()
		unfixable := make(map[int]bool)
		g := newConflictGraph(st, tr, unfixable)

		check := func(step int) {
			rebuilt := newConflictGraph(st, st.newViolTracker(), unfixable)
			got, want := g.snapshot(), rebuilt.snapshot()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: incremental graph %+v, rebuilt %+v", step, got, want)
			}
			if gotV, wantV := tr.violating(), st.violating(); !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("step %d: tracker violating %v, oracle %v", step, gotV, wantV)
			}
		}
		check(-1)

		for step := 0; step+2 < len(script); step += 3 {
			a, b, c := script[step], script[step+1], script[step+2]
			if a%4 == 3 {
				// Mark a net unfixable without touching its LSK — the case
				// where the net is absent from flush's change set and pass 1
				// must drop it from the graph explicitly.
				net := int(b) % n
				unfixable[net] = true
				g.update(tr, tr.flush())
				g.refresh(tr, net)
			} else {
				// Mutate one segment's coupling in one instance — the shape
				// of a repair or relaxation touching that instance.
				in := st.orderd[int(b)%m]
				if len(in.k) == 0 {
					continue
				}
				in.k[int(c)%len(in.k)] = float64(a^c) / 37.0
				tr.touchInst(in)
				g.update(tr, tr.flush())
			}
			check(step)
		}

		// Coloring is a pure function of the vertex set, so equal snapshots
		// imply equal wave schedules — asserted directly once, plus the
		// structural coloring invariants.
		nodes := g.snapshot()
		classes := colorConflicts(nodes)
		rebuilt := newConflictGraph(st, st.newViolTracker(), unfixable)
		if !reflect.DeepEqual(classes, colorConflicts(rebuilt.snapshot())) {
			t.Fatal("incremental and rebuilt graphs color differently")
		}
		checkColoring(t, nodes, classes)
	})
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
		if got, want := colorConflicts(nodes), colorConflictsMap(nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %d nodes colored into %d classes, oracle %d", trial, len(nodes), len(got), len(want))
		}
	}
}

func TestColorConflictsSeverityOrder(t *testing.T) {
	// Within a class, members appear in severity order (ratio desc, net
	// asc) — that is the order the repair wave dispatches, and ties must
	// break on net id for determinism.
	nodes := []conflictNode{
		{net: 3, ratio: 2.0, insts: []int{0}},
		{net: 1, ratio: 2.0, insts: []int{1}},
		{net: 2, ratio: 5.0, insts: []int{2}},
		{net: 0, ratio: 1.5, insts: []int{0}}, // conflicts with net 3
	}
	classes := colorConflicts(nodes)
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
	nodes := st.conflictNodes(nil)
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
		if len(nd.insts) != len(st.terms[nd.net]) {
			t.Fatalf("net %d: footprint %d instances, terms say %d", nd.net, len(nd.insts), len(st.terms[nd.net]))
		}
		for j, tm := range st.terms[nd.net] {
			if nd.insts[j] != tm.inst.ord {
				t.Fatalf("net %d footprint[%d] = %d, want inst ord %d", nd.net, j, nd.insts[j], tm.inst.ord)
			}
		}
	}

	// Marking a net unfixable removes exactly that node.
	skip := map[int]bool{violating[0]: true}
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
	nodes := st.conflictNodes(nil)
	if len(nodes) == 0 {
		t.Fatal("fixture has no violators")
	}
	classes := colorConflicts(nodes)
	wave := classes[0]
	used := make(map[int]int)
	for _, nd := range wave {
		for _, id := range nd.insts {
			if prev, ok := used[id]; ok {
				t.Fatalf("wave nets %d and %d share instance %d", prev, nd.net, id)
			}
			used[id] = nd.net
		}
	}
}
