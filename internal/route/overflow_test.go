package route

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
)

// overflowNetsByRegions and trackRegions are the overflow test
// overflowNets replaced, kept verbatim as its oracle: two sorted,
// de-duplicated region slices per net, counted, then searched.

// overflowNetsByRegions returns, in ascending net order, the nets whose trees hold a
// track in a region whose exact usage exceeds capacity in that direction.
// These are the candidates boundary reconciliation re-routes.
func (r *Router) overflowNetsByRegions() []int {
	useH := make([]int, r.g.NumRegions())
	useV := make([]int, r.g.NumRegions())
	tracks := make([][2][]int, len(r.nets)) // per net: [H regions, V regions]
	for ni := range r.nets {
		h, v := r.trackRegions(ni)
		tracks[ni] = [2][]int{h, v}
		for _, i := range h {
			useH[i]++
		}
		for _, i := range v {
			useV[i]++
		}
	}
	var out []int
	for ni, t := range tracks {
		if slices.ContainsFunc(t[0], func(i int) bool { return useH[i] > r.g.HC }) ||
			slices.ContainsFunc(t[1], func(i int) bool { return useV[i] > r.g.VC }) {
			out = append(out, ni)
		}
	}
	return out
}

// trackRegions returns the grid indices of the regions where net ni holds
// a horizontal (h) and a vertical (v) track — both ends of every surviving
// edge — each sorted ascending and de-duplicated. Ascending index order is
// the (y, x) scan order.
func (r *Router) trackRegions(ni int) (h, v []int) {
	for e := range r.graph(ni).aliveEdges() {
		i, j := r.g.Index(e.From), r.g.Index(e.To)
		if e.Horizontal() {
			h = append(h, i, j)
		} else {
			v = append(v, i, j)
		}
	}
	slices.Sort(h)
	slices.Sort(v)
	return slices.Compact(h), slices.Compact(v)
}

// drainedRouter seeds a router with nNets random nets on a cols×rows grid
// of capacity hc×vc and runs its tile drains and merge, leaving the state
// reconciliation starts from; it returns the router and the drained tiles.
func drainedRouter(t testing.TB, seed int64, cols, rows, hc, vc, nNets int) (*Router, []tileSnap) {
	t.Helper()
	g, err := grid.New(cols, rows, 100, 80, hc, vc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g, Config{ShieldAware: seed%2 == 0}, randomNets(seed, nNets, cols, rows))
	if err != nil {
		t.Fatal(err)
	}
	groups, tileIDs, wins := r.partition()
	tiles, err := r.drainTiles(context.Background(), serialPool{}, ShardConfig{}, groups, tileIDs, wins, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, tiles
}

// TestOverflowNetsMatchesTrackRegions pins overflowNets to its oracle on
// random drained states — grids of 1 to 20 regions a side, capacities
// that differ by direction — and again after each reconciliation round.
func TestOverflowNetsMatchesTrackRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	overflowed := 0
	for trial := 0; trial < 40; trial++ {
		cols, rows := 1+rng.Intn(20), 1+rng.Intn(20)
		hc, vc := 1+rng.Intn(4), 1+rng.Intn(4)
		r, _ := drainedRouter(t, int64(trial), cols, rows, hc, vc, 1+rng.Intn(200))
		for round := 0; ; round++ {
			got, want := r.overflowNets(), r.overflowNetsByRegions()
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d: overflowNets %v, oracle %v", trial, round, got, want)
			}
			if len(got) == 0 || round == maxReconcileRounds {
				break
			}
			overflowed++
			if err := r.reconcileRound(context.Background(), serialPool{}, ShardConfig{}, round, got); err != nil {
				t.Fatal(err)
			}
		}
	}
	if overflowed < 15 {
		t.Fatalf("only %d states overflowed; the fixture drifted", overflowed)
	}
}

// TestOverflowNetsAllocsFlat: overflowNets allocates the same small number
// of times on 100 nets as on 1,600 — its counts per region and its
// result, nothing per net.
func TestOverflowNetsAllocsFlat(t *testing.T) {
	small, _ := drainedRouter(t, 3, 16, 16, 2, 2, 100)
	large, _ := drainedRouter(t, 3, 16, 16, 2, 2, 1600)
	for _, r := range []*Router{small, large} {
		if len(r.overflowNets()) == 0 {
			t.Fatalf("no overflow on %d nets; the fixture drifted", len(r.nets))
		}
	}
	a := testing.AllocsPerRun(10, func() { small.overflowNets() })
	b := testing.AllocsPerRun(10, func() { large.overflowNets() })
	if a > 2 || b != a {
		t.Fatalf("overflowNets allocated %v times on %d nets and %v on %d, want at most 2 on both", a, len(small.nets), b, len(large.nets))
	}
}
