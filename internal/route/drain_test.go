package route

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// disconnectsPinsBFS is the reference bridge test: a breadth-first search
// from the first pin over the net's surviving edges with e masked, which
// reports whether some pin went unreached. It needs no precondition, so it
// is the oracle view.disconnectsPins is checked against.
func disconnectsPinsBFS(ns *netState, e int, horz bool) bool {
	if ns.npins <= 1 {
		return false
	}
	start := -1
	for v, isPin := range ns.pinMask {
		if isPin {
			start = v
			break
		}
	}
	visited := make([]bool, ns.w*ns.h)
	queue := make([]int, 0, ns.w*ns.h)
	visited[start] = true
	queue = append(queue, start)
	seen := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		vx, vy := v%ns.w, v/ns.w
		try := func(nv int, edgeIdx int, edgeHorz bool) {
			alive := ns.aliveV
			if edgeHorz {
				alive = ns.aliveH
			}
			if !alive[edgeIdx] || (edgeHorz == horz && edgeIdx == e) {
				return
			}
			if !visited[nv] {
				visited[nv] = true
				if ns.pinMask[nv] {
					seen++
				}
				queue = append(queue, nv)
			}
		}
		if vx > 0 {
			try(v-1, vy*(ns.w-1)+vx-1, true)
		}
		if vx < ns.w-1 {
			try(v+1, vy*(ns.w-1)+vx, true)
		}
		if vy > 0 {
			try(v-ns.w, (vy-1)*ns.w+vx, false)
		}
		if vy < ns.h-1 {
			try(v+ns.w, vy*ns.w+vx, false)
		}
	}
	return seen < ns.npins
}

// randomBridgeNet returns a net of 1–6 pins (duplicates allowed) whose
// bounding box is at most 12×12, somewhere on a 16×16 grid.
func randomBridgeNet(rng *rand.Rand) Net {
	w, h := 1+rng.Intn(12), 1+rng.Intn(12)
	x0, y0 := rng.Intn(16-w+1), rng.Intn(16-h+1)
	// With two or more pins, two opposite corners fix the bounding box at
	// w×h and the rest land anywhere inside it.
	np := 1 + rng.Intn(6)
	pins := []geom.Point{{X: x0, Y: y0}}
	if np > 1 {
		pins = append(pins, geom.Point{X: x0 + w - 1, Y: y0 + h - 1})
	}
	for len(pins) < np {
		pins = append(pins, geom.Point{X: x0 + rng.Intn(w), Y: y0 + rng.Intn(h)})
	}
	rng.Shuffle(len(pins), func(i, j int) { pins[i], pins[j] = pins[j], pins[i] })
	return Net{ID: 0, Pins: pins, Rate: 0.3}
}

// TestBridgeTestMatchesBFS drives random deletion scripts with the real
// predicate: each step picks a random alive, unfrozen edge and deletes it
// unless view.disconnectsPins says the pins would come apart, in which
// case it freezes it, as drain does. After every deletion the endpoint
// bridge test must agree with the whole-component BFS on every alive
// edge. One view serves every net, as one drains many, so its scratch is
// reused across sizes, and every tenth net starts with the stamp about to
// wrap.
func TestBridgeTestMatchesBFS(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var v *view
	checked := 0
	for trial := 0; trial < 120; trial++ {
		net := randomBridgeNet(rng)
		r, err := NewRouter(g, Config{}, []Net{net})
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			v = newView(r, g.Bounds())
		}
		v.r = r
		if trial%10 == 9 {
			// The net's first test wraps the stamp, over marks that an
			// earlier epoch left with the first stamp after the wrap.
			for i := range v.mark {
				v.mark[i] = 2
			}
			v.stamp = math.MaxUint32 - 1
		}
		ns := &r.nets[0]
		for changed := true; ; {
			type edge struct {
				e    int
				horz bool
			}
			var candidates []edge
			for _, horz := range []bool{true, false} {
				alive, frozen := ns.aliveV, ns.frozenV
				if horz {
					alive, frozen = ns.aliveH, ns.frozenH
				}
				for e := range alive {
					if !alive[e] {
						continue
					}
					if changed {
						got, want := v.disconnectsPins(ns, e, horz), disconnectsPinsBFS(ns, e, horz)
						if got != want {
							t.Fatalf("trial %d, net %v: edge %d (horizontal %v): bridge test %v, BFS %v", trial, net.Pins, e, horz, got, want)
						}
						checked++
					}
					if !frozen[e] {
						candidates = append(candidates, edge{e, horz})
					}
				}
			}
			if len(candidates) == 0 {
				break
			}
			c := candidates[rng.Intn(len(candidates))]
			alive, frozen := ns.aliveV, ns.frozenV
			if c.horz {
				alive, frozen = ns.aliveH, ns.frozenH
			}
			// A freeze leaves the graph, and so every answer, as it was.
			changed = !v.disconnectsPins(ns, c.e, c.horz)
			if changed {
				alive[c.e] = false
			} else {
				frozen[c.e] = true
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d checks ran", checked)
	}
}

// refItem and refHeap are the container/heap reference for edgeHeap, with
// the edge identity unpacked and the tie-break written out field by field.
type refItem struct {
	net, edge int32
	horz      bool
	key       float64
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.key != b.key {
		return a.key > b.key
	}
	if a.net != b.net {
		return a.net < b.net
	}
	if a.edge != b.edge {
		return a.edge < b.edge
	}
	return a.horz && !b.horz
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
func (it refItem) packed() item {
	return item{net: it.net, edge: packEdge(int(it.edge), it.horz), key: it.key}
}

// TestEdgeHeapMatchesContainerHeap checks that the typed heap pops exactly
// the sequence container/heap does under the unpacked order, over random
// interleavings of pushes and pops from an init-ed start, with keys drawn
// from a handful of values so that most comparisons fall to the
// tie-break.
func TestEdgeHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := []float64{0, 0.5, 1, 1 + 1e-9, 2}
	randItem := func() refItem {
		return refItem{net: int32(rng.Intn(4)), edge: int32(rng.Intn(6)), horz: rng.Intn(2) == 0, key: keys[rng.Intn(len(keys))]}
	}
	for trial := 0; trial < 200; trial++ {
		var ref refHeap
		var got edgeHeap
		for n := rng.Intn(40); n > 0; n-- {
			it := randItem()
			ref = append(ref, it)
			got = append(got, it.packed())
		}
		heap.Init(&ref)
		got.init()
		for step := 0; step < 400; step++ {
			if rng.Intn(3) == 0 || len(ref) == 0 {
				it := randItem()
				heap.Push(&ref, it)
				got.push(it.packed())
				continue
			}
			want := heap.Pop(&ref).(refItem).packed()
			if g := got.pop(); g != want {
				t.Fatalf("trial %d step %d: popped %+v, container/heap popped %+v", trial, step, g, want)
			}
		}
		for len(ref) > 0 {
			want := heap.Pop(&ref).(refItem).packed()
			if g := got.pop(); g != want {
				t.Fatalf("trial %d drain: popped %+v, container/heap popped %+v", trial, g, want)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d items left", trial, len(got))
		}
	}
}

// TestDrainStepZeroAlloc guards the drain step's allocation-free contract:
// once a view has tested an edge of a net, testing again and popping and
// pushing its heap allocate nothing.
func TestDrainStepZeroAlloc(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g, Config{}, []Net{{ID: 0, Pins: []geom.Point{{X: 1, Y: 2}, {X: 12, Y: 9}, {X: 4, Y: 14}}, Rate: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	v := newView(r, g.Bounds())
	v.pq, r.pq = r.pq, nil
	v.pq.init()
	ns := &r.nets[0]
	e, horz := v.pq[0].unpack()
	v.disconnectsPins(ns, e, horz)
	allocs := testing.AllocsPerRun(1000, func() {
		it := v.pq.pop()
		e, horz := it.unpack()
		v.disconnectsPins(ns, e, horz)
		v.pq.push(it)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per drain step, want 0", allocs)
	}
}

// componentsPairwise is the reference for Router.components: union-find
// over every pair of ripped nets whose bounding boxes intersect.
func componentsPairwise(bboxes []geom.Rect, nets []int) [][]int {
	parent := make([]int, len(nets))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for i := range nets {
		for j := i + 1; j < len(nets); j++ {
			if bboxes[nets[i]].Intersects(bboxes[nets[j]]) {
				if ri, rj := find(i), find(j); ri != rj {
					parent[max(ri, rj)] = min(ri, rj)
				}
			}
		}
	}
	index := map[int]int{}
	var out [][]int
	for i, ni := range nets {
		root := find(i)
		ci, ok := index[root]
		if !ok {
			ci = len(out)
			index[root] = ci
			out = append(out, nil)
		}
		out[ci] = append(out[ci], ni)
	}
	return out
}

// TestComponentsMatchPairwise checks the cell-cover grouping against the
// pairwise one on random bounding boxes — from single cells to most of the
// grid, dense and sparse — over random ascending subsets: same components,
// same order, same member order.
func TestComponentsMatchPairwise(t *testing.T) {
	g, err := grid.New(24, 18, 100, 100, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		maxSide := 1 + rng.Intn(12)
		r := &Router{g: g, nets: make([]netState, n)}
		bboxes := make([]geom.Rect, n)
		for i := range bboxes {
			w, h := 1+rng.Intn(maxSide), 1+rng.Intn(maxSide)
			x, y := rng.Intn(g.Cols-w+1), rng.Intn(g.Rows-h+1)
			bboxes[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w - 1, MaxY: y + h - 1}
			r.nets[i].bbox = bboxes[i]
		}
		var ripped []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				ripped = append(ripped, i)
			}
		}
		got, want := r.components(ripped), componentsPairwise(bboxes, ripped)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: components %v, pairwise %v", trial, got, want)
		}
	}
}
