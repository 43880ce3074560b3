package route

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// disconnectsPinsBFS is the reference bridge test: a breadth-first search
// from the first pin over the net's surviving edges with e masked, which
// reports whether some pin went unreached. It needs no precondition, so it
// is the oracle bridge.disconnectsPins is checked against.
func disconnectsPinsBFS(ns *graph, e int, horz bool) bool {
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
			flags := ns.flagsV
			if edgeHorz {
				flags = ns.flagsH
			}
			if flags[edgeIdx]&edgeDeleted != 0 || (edgeHorz == horz && edgeIdx == e) {
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
// unless bridge.disconnectsPins says the pins would come apart, in which
// case it freezes it, as drain does. After every deletion the endpoint
// bridge test must agree with the whole-component BFS on every alive
// edge. One scratch serves every net, as a lent workspace serves every
// net of every view it drains, so it is reused across sizes, and every
// tenth net starts with the stamp about to wrap.
func TestBridgeTestMatchesBFS(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var br bridge
	checked := 0
	for trial := 0; trial < 120; trial++ {
		net := randomBridgeNet(rng)
		r, err := NewRouter(g, Config{}, []Net{net})
		if err != nil {
			t.Fatal(err)
		}
		if trial%10 == 9 {
			// The net's first test wraps the stamp, over marks that an
			// earlier epoch left with the first stamp after the wrap.
			for i := range br.mark {
				br.mark[i] = 2
			}
			br.stamp = math.MaxUint32 - 1
		}
		ns := r.graph(0)
		for changed := true; ; {
			type edge struct {
				e    int
				horz bool
			}
			var candidates []edge
			for _, horz := range []bool{true, false} {
				flags := ns.flagsV
				if horz {
					flags = ns.flagsH
				}
				for e, f := range flags {
					if f&edgeDeleted != 0 {
						continue
					}
					if changed {
						got, want := br.disconnectsPins(r, ns.netState, e, horz), disconnectsPinsBFS(&ns, e, horz)
						if got != want {
							t.Fatalf("trial %d, net %v: edge %d (horizontal %v): bridge test %v, BFS %v", trial, net.Pins, e, horz, got, want)
						}
						checked++
					}
					if f&edgeFrozen == 0 {
						candidates = append(candidates, edge{e, horz})
					}
				}
			}
			if len(candidates) == 0 {
				break
			}
			c := candidates[rng.Intn(len(candidates))]
			// A freeze leaves the graph, and so every answer, as it was.
			changed = !br.disconnectsPins(r, ns.netState, c.e, c.horz)
			if changed {
				r.flags[ns.flag(c.e, c.horz)] = edgeDeleted
			} else {
				r.flags[ns.flag(c.e, c.horz)] = edgeFrozen
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d checks ran", checked)
	}
}

// TestDrainStepZeroAlloc guards the drain step's allocation-free contract:
// once a workspace has tested edges of a net and its queue has run a
// while, testing again, popping and re-pushing at a lower key allocate
// nothing.
func TestDrainStepZeroAlloc(t *testing.T) {
	g, err := grid.New(16, 16, 100, 100, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g, Config{}, []Net{{ID: 0, Pins: []geom.Point{{X: 1, Y: 2}, {X: 12, Y: 9}, {X: 4, Y: 14}}, Rate: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	var ws workspace
	ws.pq.init(r.seeded)
	ns := &r.nets[0]
	step := func() {
		it := ws.pq.pop()
		e, horz := it.unpack()
		ws.disconnectsPins(r, ns, e, horz)
		it.key -= 0.25
		ws.pq.push(it)
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("%v allocs per drain step, want 0", allocs)
	}
}

// TestWarmWorkspaceDrainsWithoutAllocating: a workspace that has drained
// a design's tile views drains them again, each after another view, with
// no allocation — its queue takes its spare chunks, and its chunk index
// and bridge scratch are already big enough — so a route allocates its
// drains' working memory once per lent workspace, not once per view. Each
// pass ends with the first pass's flags and windows.
func TestWarmWorkspaceDrainsWithoutAllocating(t *testing.T) {
	r, wins, owner, counts := tileRouter(t)
	shares := splitItems(r.seeded, owner, counts)
	items := make([][]item, len(shares)) // each share as split: a drain scrambles it
	views := make([]*view, len(shares))
	for vi, share := range shares {
		items[vi] = slices.Clone(share)
		views[vi] = newView(r, wins[vi], nil)
	}
	flags := slices.Clone(r.flags)
	var ws workspace
	drainAll := func() {
		copy(r.flags, flags)
		for vi, v := range views {
			for _, a := range v.arrays() {
				clear(*a)
			}
			copy(shares[vi], items[vi])
			v.seed = shares[vi]
			v.drain(&ws)
		}
	}
	drainAll()
	if len(views) < 2 || len(ws.pq.spare)+len(ws.pq.chunks) == 0 {
		t.Fatal("the fixture drifted: too few views, or no chunk allocated")
	}
	wantFlags := slices.Clone(r.flags)
	wantWins := make([]window, len(views))
	for vi, v := range views {
		wantWins[vi] = v.window
		for _, a := range wantWins[vi].arrays() {
			*a = slices.Clone(*a)
		}
	}
	if allocs := testing.AllocsPerRun(3, drainAll); allocs != 0 {
		t.Errorf("%v allocs per pass over %d views on a warm workspace, want 0", allocs, len(views))
	}
	if !slices.Equal(r.flags, wantFlags) {
		t.Error("a pass on the warm workspace left other flags than the first pass")
	}
	for vi, v := range views {
		if !sameWindow(&v.window, &wantWins[vi]) {
			t.Errorf("view %d: a pass on the warm workspace left another window than the first pass", vi)
		}
	}
}

// tileRouter seeds a router for 600 random nets on a 24×24 grid of
// capacity 2 and groups them by tile, as drainTiles does: it returns the
// router, each group's window, each net's group and each group's item
// count, splitItems' arguments.
func tileRouter(t *testing.T) (r *Router, wins []geom.Rect, owner []int32, counts []int) {
	t.Helper()
	g, err := grid.New(24, 24, 100, 100, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err = NewRouter(g, Config{ShieldAware: true}, randomNets(5, 600, 24, 24))
	if err != nil {
		t.Fatal(err)
	}
	groups, _, wins := r.partition()
	owner = make([]int32, len(r.nets))
	counts = make([]int, len(groups))
	for vi, members := range groups {
		for _, ni := range members {
			owner[ni] = int32(vi)
			counts[vi] += r.nets[ni].numEdges()
		}
	}
	return r, wins, owner, counts
}

// sameWindow reports whether two windows cover one rectangle with the
// same values, bit for bit.
func sameWindow(a, b *window) bool {
	if a.rect != b.rect {
		return false
	}
	as, bs := a.arrays(), b.arrays()
	for k := range as {
		if !slices.EqualFunc(*as[k], *bs[k], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

// TestSplitSharesNeverOverrun: splitItems hands each view exactly its own
// items, and capped at them, so a full drain of any view never writes the
// items just past its share — the next view's, or for the last view spare
// capacity — however its queue reuses its chunks. Every view drains in
// turn on one shared workspace, as the serial pool lends it, with the
// chunk past its share poisoned. Sharing the workspace shows nowhere:
// each view's window, and in the end the flags, equal a twin router's
// whose views each drain on a fresh workspace. The bridge stamp keeps
// counting from view to view: no mark is ever newer than the stamp, so
// no mark a view leaves can pass for one of the next view's tests. And
// the lent queue keeps only chunks it allocated: none of its spares lies
// in the seeded array, which reconciliation carves again.
func TestSplitSharesNeverOverrun(t *testing.T) {
	r, wins, owner, counts := tileRouter(t)
	twin, _, _, _ := tileRouter(t)
	n := len(r.seeded)
	backing := make([]item, n+chunkLen)
	copy(backing, r.seeded)
	want := slices.Clone(r.seeded)
	shares := splitItems(backing[:n], owner, counts)
	twinShares := splitItems(twin.seeded, owner, counts)

	var ws workspace
	var got []item
	poison := item{net: -1, edge: -1, key: -1}
	end := 0
	for vi, share := range shares {
		for _, it := range share {
			if int(owner[it.net]) != vi {
				t.Fatalf("view %d holds an item of net %d, owned by view %d", vi, it.net, owner[it.net])
			}
		}
		got = append(got, share...)
		end += len(share)
		past := backing[end:min(end+chunkLen, len(backing))]
		saved := slices.Clone(past)
		for i := range past {
			past[i] = poison
		}
		v := newView(r, wins[vi], share)
		v.drain(&ws)
		for i, it := range past {
			if it != poison {
				t.Fatalf("draining view %d (%d items) wrote %+v at %d past its share", vi, len(share), it, i)
			}
		}
		copy(past, saved)
		if m := slices.Max(ws.mark); m > ws.stamp+1 {
			t.Fatalf("after view %d the workspace holds a mark %d newer than its stamp %d", vi, m, ws.stamp)
		}
		tv := newView(twin, wins[vi], twinShares[vi])
		tv.drain(new(workspace))
		if v.pops != tv.pops || !sameWindow(&v.window, &tv.window) {
			t.Fatalf("view %d drained on the shared workspace (%d pops) differs from its drain on a fresh one (%d pops)", vi, v.pops, tv.pops)
		}
	}
	if !slices.Equal(r.flags, twin.flags) {
		t.Fatal("the flags after draining on the shared workspace differ from those after fresh ones")
	}

	ws.pq.init(nil) // the last view's allocated chunks become spares too
	if len(ws.pq.spare) == 0 {
		t.Fatal("the queue allocated no chunk; the fixture drifted")
	}
	inBacking := make(map[*item]bool, len(backing))
	for i := range backing {
		inBacking[&backing[i]] = true
	}
	for _, c := range ws.pq.spare {
		if inBacking[&c[0]] {
			t.Fatal("a chunk carved from a share is among the workspace's spares")
		}
	}
	byEdge := func(a, b item) int { return cmp.Or(cmp.Compare(a.net, b.net), cmp.Compare(a.edge, b.edge)) }
	slices.SortFunc(got, byEdge)
	slices.SortFunc(want, byEdge)
	if !slices.Equal(got, want) {
		t.Fatal("the shares are not a permutation of the seeded items")
	}
}
