package route

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// edgeHeap is the pop-order oracle for radixQueue: a binary max-heap of
// items under before, the order the drain popped in before the radix
// queue replaced it.
type edgeHeap []item

// before orders the max-heap by key, with a total tie-break on the edge
// identity: lower net, then lower packed edge. It is item.order written
// as a comparison.
func (it item) before(o item) bool {
	if it.key != o.key {
		return it.key > o.key
	}
	if it.net != o.net {
		return it.net < o.net
	}
	return it.edge < o.edge
}

// init establishes heap order over the slice.
func (h edgeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *edgeHeap) push(it item) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// pop removes and returns the first item under before.
func (h *edgeHeap) pop() item {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.down(0, n)
	}
	return top
}

func (h edgeHeap) up(j int) {
	it := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !it.before(h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
}

func (h edgeHeap) down(i, n int) {
	it := h[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].before(h[j]) {
			j++
		}
		if !h[j].before(it) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = it
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

// sameItem compares items bit for bit, so a -0 key differs from +0.
func sameItem(a, b item) bool {
	return a.net == b.net && a.edge == b.edge && math.Float64bits(a.key) == math.Float64bits(b.key)
}

// TestRadixQueueMatchesHeap drives the radix queue and the heap oracle
// with drain-shaped scripts: seed distinct edges, then pop, and perhaps
// re-push the popped item at a strictly lower key, until both are empty.
// Keys come mostly from a short list holding ±0 and +Inf, so most orders
// fall to the tie-break; seeds span several chunks, with and without
// spare capacity behind the last one. Every pop must be the oracle's.
func TestRadixQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	palette := []float64{-1, math.Copysign(0, -1), 0, 0.5, 1, 1 + 1e-9, 2, 3, math.Inf(1)}
	randKey := func() float64 {
		if rng.Intn(4) == 0 {
			return 4 * rng.Float64()
		}
		return palette[rng.Intn(len(palette))]
	}
	// lower returns a key strictly below k, or false when the palette
	// and a random step offer none.
	lower := func(k float64) (float64, bool) {
		var below []float64
		for _, p := range palette {
			if p < k {
				below = append(below, p)
			}
		}
		if !math.IsInf(k, 1) {
			if w := k - rng.Float64(); w < k {
				below = append(below, w)
			}
		}
		if len(below) == 0 {
			return 0, false
		}
		return below[rng.Intn(len(below))], true
	}
	pops := 0
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(1 + []int{8, 100, 700, 3000}[trial%4])
		seed := make([]item, 0, n+rng.Intn(2)*chunkLen)
		for _, id := range rng.Perm(4 * n)[:n] {
			seed = append(seed, item{net: int32(id / 8), edge: int32(id % 8), key: randKey()})
		}
		oracle := append(edgeHeap(nil), seed...)
		oracle.init()
		var q radixQueue
		q.init(seed)
		for len(oracle) > 0 {
			if q.len() != len(oracle) {
				t.Fatalf("trial %d: queue holds %d items, oracle %d", trial, q.len(), len(oracle))
			}
			want, got := oracle.pop(), q.pop()
			pops++
			if !sameItem(got, want) {
				t.Fatalf("trial %d pop %d: queue popped %+v, oracle %+v", trial, pops, got, want)
			}
			if rng.Intn(3) > 0 {
				if w, ok := lower(want.key); ok {
					want.key = w
					oracle.push(want)
					q.push(want)
				}
			}
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: queue holds %d items after the oracle emptied", trial, q.len())
		}
	}
	if pops < 100000 {
		t.Fatalf("only %d pops compared", pops)
	}
}
