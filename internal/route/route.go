// Package route implements the paper's Phase I global router: the
// iterative-deletion (ID) algorithm of Cong–Preas as extended by Ma–He with
// shielding-area-aware edge weights (paper §3.1, Figure 1).
//
// Every net starts with its full connection graph — all regions inside its
// pin bounding box, with edges between adjacent regions. The router
// repeatedly removes the highest-weight edge whose removal keeps the net's
// pin regions connected; edges that have become bridges between pins are
// frozen. At the fixpoint each net's surviving edges form exactly a Steiner
// tree over its pin regions.
//
// A horizontal edge's weight follows Formula (2):
//
//	w(e) = α·f(WL) + β·HD(R) + γ·HOFR(R)
//
// with f(WL) the edge length normalized by the net's estimated RSMT length,
// HD the horizontal track density HU/HC, and HOFR the relative horizontal
// overflow. When the router is shield-aware (GSINO), HU includes the
// expected shield demand Nss from Formula (3), so regions dense with
// sensitive nets look expensive and the router spreads sensitive nets out;
// the baselines (ID+NO, iSINO) exclude Nss. Vertical edges are symmetric.
//
// Expected utilization during deletion is probabilistic: a net contributes
// n/2 tracks to a region crossed by n of its surviving candidate edges in
// that direction (n ∈ {0,1,2}). The estimate starts pessimistic and
// converges to the true usage as graphs shrink to trees, and it only
// decreases — which makes lazy priority-queue maintenance sound.
//
// The router runs in two modes. Run executes the classic single-queue
// sequential deletion. RunSharded partitions the nets into spatial tile
// groups and drains each group's own queue concurrently on a worker pool
// (see shard.go): every group routes against the frozen pre-deletion
// utilization of foreign groups plus its own live updates, the per-group
// deltas merge back deterministically, and a bounded number of
// reconciliation rounds re-routes nets through overflowed boundary
// regions. The sharded fixpoint is a pure function of the input — the
// worker count never changes a single byte of the Result — and with a 1×1
// tile grid it degenerates to exactly the sequential algorithm.
package route

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/sino"
	"repro/internal/steiner"
)

// Net is a routing request: the regions containing the net's pins.
type Net struct {
	ID   int
	Pins []geom.Point // pin regions; duplicates allowed (deduped internally)
	Rate float64      // sensitivity rate S_i, used by shield-aware weights
}

// Config tunes the router.
type Config struct {
	// Alpha, Beta, Gamma weight wire length, density, and overflow in
	// Formula (2). Zero values select the paper's α=2, β=1, γ=50.
	Alpha, Beta, Gamma float64

	// ShieldAware includes the Formula (3) shield estimate in track
	// utilization (the GSINO router), with the fitted coefficients in
	// shieldCoeffs. Baselines set it false.
	ShieldAware bool
}

// shieldCoeffs are the Formula (3) coefficients every shield-aware router
// estimates with.
var shieldCoeffs = sino.DefaultShieldCoeffs()

func (c Config) withDefaults() Config {
	if c.Alpha == 0 && c.Beta == 0 && c.Gamma == 0 {
		c.Alpha, c.Beta, c.Gamma = 2, 1, 50
	}
	return c
}

// Resolved returns the config with every zero value replaced by its
// default — the exact parameters a router built from c runs under. Two
// configs with equal Resolved values define the same algorithm, which is
// what content-addressed artifact keys (internal/artifact) must hash.
func (c Config) Resolved() Config { return c.withDefaults() }

// Edge is one tree edge between two adjacent regions.
type Edge struct {
	From, To geom.Point // From < To in scan order
}

// Horizontal reports whether the edge crosses between horizontal neighbors.
func (e Edge) Horizontal() bool { return e.From.Y == e.To.Y }

// Tree is a net's final route: a Steiner tree over its pin regions. A
// net whose pins share one region routes without edges.
type Tree struct {
	Net   int
	Edges []Edge
}

// WirelengthUM returns the physical tree length: edges span region centers.
func (t *Tree) WirelengthUM(g *grid.Grid) geom.Micron {
	var wl geom.Micron
	for _, e := range t.Edges {
		if e.Horizontal() {
			wl += g.CellW
		} else {
			wl += g.CellH
		}
	}
	return wl
}

// Result is the routing outcome for all nets.
type Result struct {
	Trees []Tree
	// Stats describes how the run decomposed the problem (see RunStats).
	Stats RunStats
}

// RunStats reports how a routing run was scheduled. Sequential Run reports
// a single shard; RunSharded reports the tile decomposition and the
// boundary-reconciliation work. Every field is a pure function of the
// input — never of the pool or worker count — so stats participate in the
// byte-equality determinism contract alongside the trees.
type RunStats struct {
	Shards          int // tile groups drained independently
	LargestShard    int // nets in the most populated group
	Reconciled      int // net re-routes performed by reconciliation rounds
	ReconcileRounds int // reconciliation rounds that ran

	// SeedChunks is the chunk count per-net graph construction fanned out
	// over (ceil(nets/seedChunk), identical with or without a pool).
	SeedChunks int
	// ReconcileComponents counts the boundary-overflow connected
	// components reconciled across all rounds; LargestComponent is the
	// net count of the biggest one (the serial grain of reconciliation).
	ReconcileComponents int
	LargestComponent    int
}

// Validate checks that res fits the grid and net list it is used with:
// one tree per net, carrying that net's id; every edge a unit step inside
// the grid; and no edgeless tree for a net whose pins span regions, since
// Phase II places an edgeless net in its first pin's region. A router
// builds such results by construction. A decoded artifact's checksum and
// fingerprint prove only that its bytes are the ones sealed, so a result
// read back from a store is validated before anything indexes it.
func (r *Result) Validate(g *grid.Grid, nets []Net) error {
	if len(r.Trees) != len(nets) {
		return fmt.Errorf("route: result has %d trees for %d nets", len(r.Trees), len(nets))
	}
	b := g.Bounds()
	for i := range r.Trees {
		t := &r.Trees[i]
		if t.Net != nets[i].ID {
			return fmt.Errorf("route: tree %d carries net %d, want %d", i, t.Net, nets[i].ID)
		}
		for _, e := range t.Edges {
			dx, dy := e.To.X-e.From.X, e.To.Y-e.From.Y
			if !b.Contains(e.From) || !b.Contains(e.To) || dx*dx+dy*dy != 1 {
				return fmt.Errorf("route: tree %d edge %v-%v is not a unit step inside the %dx%d grid", i, e.From, e.To, g.Cols, g.Rows)
			}
		}
		if pins := nets[i].Pins; len(t.Edges) == 0 && slices.ContainsFunc(pins, func(p geom.Point) bool { return p != pins[0] }) {
			return fmt.Errorf("route: tree %d has no edges but its net's pins span regions", i)
		}
	}
	return nil
}

// netState is the per-net connection graph during deletion. Its pins
// determine bbox, w, h, pinMask, npins and spineNorm (setPins), so a
// DrainState stores only the rest.
type netState struct {
	id   int
	bbox geom.Rect
	w, h int // bbox dims in regions

	pinMask []bool // per local vertex
	npins   int

	aliveH []bool // local horizontal edges: (w-1)*h
	aliveV []bool // local vertical edges: w*(h-1)

	frozenH []bool
	frozenV []bool

	rsmtUM geom.Micron // RSMT estimate for f(WL) normalization
	rate   float64

	// spineDist[v] is the BFS distance from local vertex v to the net's
	// estimated RSMT spine; the f(WL) term grows with it, so edges far from
	// the spine are deleted first and the surviving tree stays short.
	spineDist []int32
	spineNorm float64
}

func (n *netState) vertex(x, y int) int { return (y-n.bbox.MinY)*n.w + (x - n.bbox.MinX) }

// hEdge returns the local index of the horizontal edge between (x,y)-(x+1,y).
func (n *netState) hEdge(x, y int) int { return (y-n.bbox.MinY)*(n.w-1) + (x - n.bbox.MinX) }

// vEdge returns the local index of the vertical edge between (x,y)-(x,y+1).
func (n *netState) vEdge(x, y int) int { return (y-n.bbox.MinY)*n.w + (x - n.bbox.MinX) }

// Router carries the shared deletion state.
type Router struct {
	g   *grid.Grid
	cfg Config

	nets []netState

	// inPins keeps each net's input pin list (as given, duplicates and
	// order included) so DrainState snapshots can later detect whether a
	// net's definition changed — spine construction is order-sensitive, so
	// resume compares raw pin lists, not canonicalized sets.
	inPins [][]geom.Point

	// seedChunks records how construction was chunked (RunStats.SeedChunks).
	seedChunks int

	// base is the expected utilization over the whole grid. Only the
	// sequential phases (seeding, delta merges, reconciliation rip-up)
	// write it; during a drain all updates go to the view's own window.
	base window

	// seeded holds the items seeding pushed, until the drains take them.
	seeded []item

	// free is the array the tile drains' queues were carved from, once
	// they have drained; reconciliation rounds carve theirs from it.
	free []item

	// pops counts the items every drain has popped so far (trace only).
	pops int
}

// item is a queue entry (lazy: may be stale). edge packs the net-local
// edge index and its direction as index<<1 | vertical, so ascending
// packed order is lower index first, horizontal before vertical.
type item struct {
	net  int32
	edge int32
	key  float64
}

func packEdge(e int, horz bool) int32 {
	if horz {
		return int32(e) << 1
	}
	return int32(e)<<1 | 1
}

// unpack returns the net-local edge index and direction.
func (it item) unpack() (int, bool) { return int(it.edge >> 1), it.edge&1 == 0 }

// NewRouter prepares the deletion state for the nets on g, constructing
// every net's connection graph serially — NewRouterOn with no pool.
func NewRouter(g *grid.Grid, cfg Config, nets []Net) (*Router, error) {
	return NewRouterOn(context.Background(), g, cfg, nets, nil)
}

// seedChunk is the net count each parallel graph-construction task
// handles. Chunk boundaries are a pure function of the net count, so the
// chunking never shows in the result.
const seedChunk = 256

// NewRouterOn prepares the deletion state with per-net construction
// fanned out over pool (nil constructs serially). The Router is
// byte-identical at any worker count (see seed).
func NewRouterOn(ctx context.Context, g *grid.Grid, cfg Config, nets []Net, pool Pool) (*Router, error) {
	if g == nil {
		return nil, fmt.Errorf("route: nil grid")
	}
	if err := validateNets(g, nets); err != nil {
		return nil, err
	}
	r := newRouter(g, cfg.withDefaults(), nets)
	if err := r.seed(ctx, orSerial(pool, nil, 0), func(i int, sc *seedScratch) netState { return r.makeNetState(nets[i], sc) }, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// newRouter allocates the deletion state for nets on g, with the base
// utilization zeroed and the canonical seeding chunk count.
func newRouter(g *grid.Grid, cfg Config, nets []Net) *Router {
	r := &Router{
		g: g, cfg: cfg,
		nets:       make([]netState, len(nets)),
		inPins:     make([][]geom.Point, len(nets)),
		seedChunks: (len(nets) + seedChunk - 1) / seedChunk,
		base:       newWindow(g.Bounds()),
	}
	for i := range nets {
		r.inPins[i] = nets[i].Pins
	}
	return r
}

// seed constructs every net's state — the one seeding path of a fresh
// router and an ECO resume. It splits into two parts:
//
//   - Pure per-net work: build(i, sc) returns net i's state (a fresh
//     connection graph, or one restored from a snapshot), working in sc,
//     its chunk's scratch. It reads only immutable inputs and writes a
//     disjoint slot, so it runs chunked on the pool (the bulk of seeding
//     cost: Steiner estimate + BFS per net).
//   - Order-dependent work, serial in ascending net order: every net's
//     expected utilization goes into the base, and the nets push selects
//     (nil: all) put their edges in r.seeded with initial weights. Net i's
//     weights read the base state left by nets 0..i.
//
// The split makes the seeded Router byte-identical to serial construction
// at any worker count.
func (r *Router) seed(ctx context.Context, pool Pool, build func(i int, sc *seedScratch) netState, push []bool) error {
	tasks := make([]func() error, r.seedChunks)
	for c := range tasks {
		lo, hi := c*seedChunk, min((c+1)*seedChunk, len(r.nets))
		tasks[c] = func() error {
			sc := new(seedScratch)
			for i := lo; i < hi; i++ {
				r.nets[i] = build(i, sc)
			}
			return nil
		}
	}
	if err := pool.RunTasks(ctx, "seed", nil, tasks); err != nil {
		return err
	}
	items := 0
	for i := range r.nets {
		if push == nil || push[i] {
			items += r.nets[i].numEdges()
		}
	}
	r.seeded = make([]item, 0, items)
	for i := range r.nets {
		r.bumpNet(i)
		if push == nil || push[i] {
			r.pushNet(&r.seeded, i)
		}
	}
	return nil
}

// seedScratch is one seed chunk's working memory, reused by each net it
// builds: the Steiner estimate's buffers and buildSpine's BFS queue. Only
// what a net keeps is allocated per net.
type seedScratch struct {
	est   steiner.Scratch
	queue []int32
}

// validateNets checks every net's pins and rate against the grid — shared
// by fresh construction and the ECO resume path.
func validateNets(g *grid.Grid, nets []Net) error {
	bounds := g.Bounds()
	for _, net := range nets {
		if len(net.Pins) == 0 {
			return fmt.Errorf("route: net %d has no pin regions", net.ID)
		}
		for _, p := range net.Pins {
			if !bounds.Contains(p) {
				return fmt.Errorf("route: net %d pin region %v outside grid", net.ID, p)
			}
		}
		// Written so that NaN fails too: a NaN rate makes NaN edge weights,
		// which have no place in the drain's total order (item.order).
		if !(net.Rate >= 0 && net.Rate <= 1) {
			return fmt.Errorf("route: net %d sensitivity rate %g outside [0,1]", net.ID, net.Rate)
		}
	}
	return nil
}

// makeNetState builds one net's connection graph — the pure per-net part
// of seeding — in sc. It reads only the immutable grid, so disjoint nets
// can be constructed concurrently.
func (r *Router) makeNetState(net Net, sc *seedScratch) netState {
	ns := netState{id: net.ID, rate: net.Rate}
	ns.setPins(net.Pins)
	w, h := ns.w, ns.h
	ns.aliveH, ns.frozenH = make([]bool, (w-1)*h), make([]bool, (w-1)*h)
	ns.aliveV, ns.frozenV = make([]bool, w*(h-1)), make([]bool, w*(h-1))
	length, points, edges := sc.est.Estimate(net.Pins, r.g.CellW, r.g.CellH)
	ns.rsmtUM = length
	ns.buildSpine(points, edges, &sc.queue)
	ns.resetEdges()
	return ns
}

// setPins sets the fields of ns that its non-empty pin list determines —
// the bounding box and its dimensions, the pin mask and count, and
// spineNorm. It allocates a mask over the whole bounding box, so a decoder
// calls it only after input it has read bounds that box.
func (ns *netState) setPins(pins []geom.Point) {
	ns.bbox = geom.RectFromPoints(pins)
	ns.w, ns.h = ns.bbox.Width(), ns.bbox.Height()
	ns.pinMask = make([]bool, ns.w*ns.h)
	ns.npins = 0
	for _, p := range pins {
		if v := ns.vertex(p.X, p.Y); !ns.pinMask[v] {
			ns.pinMask[v] = true
			ns.npins++
		}
	}
	ns.spineNorm = max(float64(ns.w+ns.h)/2, 1)
}

// numEdges is the edge count of the net's full connection graph — the
// items pushNet seeds.
func (ns *netState) numEdges() int { return len(ns.aliveH) + len(ns.aliveV) }

// resetEdges makes every edge alive and unfrozen — the full connection
// graph a net starts deletion from.
func (ns *netState) resetEdges() {
	for i := range ns.aliveH {
		ns.aliveH[i] = true
		ns.frozenH[i] = false
	}
	for i := range ns.aliveV {
		ns.aliveV[i] = true
		ns.frozenV[i] = false
	}
}

// bumpNet adds net idx's full-connection-graph expected utilization to the
// base. The ECO resume replays exactly this for every net (bit-identical
// prefix sums) while seeding items only for nets it will re-drain.
func (r *Router) bumpNet(idx int) {
	ns := &r.nets[idx]
	bbox := ns.bbox
	for y := bbox.MinY; y <= bbox.MaxY; y++ {
		for x := bbox.MinX; x < bbox.MaxX; x++ {
			r.base.bumpEdge(x, y, true, ns.rate, +0.5)
		}
	}
	for y := bbox.MinY; y < bbox.MaxY; y++ {
		for x := bbox.MinX; x <= bbox.MaxX; x++ {
			r.base.bumpEdge(x, y, false, ns.rate, +0.5)
		}
	}
}

// pushNet computes every edge weight of net idx against the current base
// state and appends the edges to items.
func (r *Router) pushNet(items *[]item, idx int) {
	ns := &r.nets[idx]
	bbox := ns.bbox
	for y := bbox.MinY; y <= bbox.MaxY; y++ {
		for x := bbox.MinX; x < bbox.MaxX; x++ {
			*items = append(*items, item{net: int32(idx), edge: packEdge(ns.hEdge(x, y), true),
				key: r.edgeWeight(idx, x, y, true, nil)})
		}
	}
	for y := bbox.MinY; y < bbox.MaxY; y++ {
		for x := bbox.MinX; x <= bbox.MaxX; x++ {
			*items = append(*items, item{net: int32(idx), edge: packEdge(ns.vEdge(x, y), false),
				key: r.edgeWeight(idx, x, y, false, nil)})
		}
	}
}

// buildSpine rasterizes the estimated RSMT topology — points and the
// edges between them, from steiner.Scratch.Estimate — into the bbox (each
// topology edge embedded as a horizontal-then-vertical L) and computes
// every local vertex's BFS distance from that spine. The BFS runs in
// *queue, which it grows as needed and leaves for the next net.
func (n *netState) buildSpine(points []geom.Point, edges [][2]int, queue *[]int32) {
	n.spineDist = make([]int32, n.w*n.h)
	for i := range n.spineDist {
		n.spineDist[i] = -1
	}
	q := (*queue)[:0]
	mark := func(p geom.Point) {
		v := n.vertex(p.X, p.Y)
		if n.spineDist[v] < 0 {
			n.spineDist[v] = 0
			q = append(q, int32(v))
		}
	}
	for _, p := range points {
		mark(p)
	}
	for _, e := range edges {
		a, b := points[e[0]], points[e[1]]
		step := func(from, to int) int {
			if to > from {
				return 1
			}
			return -1
		}
		if a.X != b.X {
			d := step(a.X, b.X)
			for x := a.X; x != b.X; x += d {
				mark(geom.Point{X: x, Y: a.Y})
			}
		}
		if a.Y != b.Y {
			d := step(a.Y, b.Y)
			for y := a.Y; y != b.Y; y += d {
				mark(geom.Point{X: b.X, Y: y})
			}
		}
	}
	for head := 0; head < len(q); head++ {
		v := int(q[head])
		vx, vy := v%n.w, v/n.w
		for _, nb := range [4][2]int{{vx - 1, vy}, {vx + 1, vy}, {vx, vy - 1}, {vx, vy + 1}} {
			if nb[0] < 0 || nb[0] >= n.w || nb[1] < 0 || nb[1] >= n.h {
				continue
			}
			nv := nb[1]*n.w + nb[0]
			if n.spineDist[nv] < 0 {
				n.spineDist[nv] = n.spineDist[v] + 1
				q = append(q, int32(nv))
			}
		}
	}
	*queue = q
}

// spineFactor returns the f(WL) multiplier for an edge between local
// vertices a and b: 1 on the spine, growing with distance from it.
func (n *netState) spineFactor(a, b int) float64 {
	d := float64(n.spineDist[a]+n.spineDist[b]) / 2
	return 1 + 2*d/n.spineNorm
}

// regionHU returns the expected horizontal utilization of region (x,y) —
// the frozen base plus v's private deltas when v is non-nil — including
// the shield estimate when shield-aware, minus the contribution
// ownNns/ownRate of the net whose edge is being weighed: a net occupies one
// track regardless of which of its candidate edges survive, so it must not
// repel itself (and the exclusion keeps weights monotone, since an own-edge
// deletion cancels out of HU−own).
func (r *Router) regionHU(x, y int, ownNns, ownRate float64, v *view) float64 {
	i := y*r.g.Cols + x
	nns, ss, s2 := r.base.nnsH[i], r.base.sumSH[i], r.base.sumS2H[i]
	if v != nil {
		w := v.widx(x, y)
		nns += v.nnsH[w]
		ss += v.sumSH[w]
		s2 += v.sumS2H[w]
	}
	nns -= ownNns
	if nns < 0 {
		nns = 0
	}
	hu := nns
	if r.cfg.ShieldAware {
		hu += shieldCoeffs.Estimate(nns, ss-ownNns*ownRate, s2-ownNns*ownRate*ownRate)
	}
	return hu
}

func (r *Router) regionVU(x, y int, ownNns, ownRate float64, v *view) float64 {
	i := y*r.g.Cols + x
	nns, ss, s2 := r.base.nnsV[i], r.base.sumSV[i], r.base.sumS2V[i]
	if v != nil {
		w := v.widx(x, y)
		nns += v.nnsV[w]
		ss += v.sumSV[w]
		s2 += v.sumS2V[w]
	}
	nns -= ownNns
	if nns < 0 {
		nns = 0
	}
	vu := nns
	if r.cfg.ShieldAware {
		vu += shieldCoeffs.Estimate(nns, ss-ownNns*ownRate, s2-ownNns*ownRate*ownRate)
	}
	return vu
}

// ownH counts net ns's surviving horizontal edges incident to region (x,y),
// each contributing 0.5 expected tracks.
func (ns *netState) ownH(x, y int) float64 {
	n := 0.0
	if y >= ns.bbox.MinY && y <= ns.bbox.MaxY {
		if x > ns.bbox.MinX && x <= ns.bbox.MaxX && ns.aliveH[ns.hEdge(x-1, y)] {
			n += 0.5
		}
		if x >= ns.bbox.MinX && x < ns.bbox.MaxX && ns.aliveH[ns.hEdge(x, y)] {
			n += 0.5
		}
	}
	return n
}

func (ns *netState) ownV(x, y int) float64 {
	n := 0.0
	if x >= ns.bbox.MinX && x <= ns.bbox.MaxX {
		if y > ns.bbox.MinY && y <= ns.bbox.MaxY && ns.aliveV[ns.vEdge(x, y-1)] {
			n += 0.5
		}
		if y >= ns.bbox.MinY && y < ns.bbox.MaxY && ns.aliveV[ns.vEdge(x, y)] {
			n += 0.5
		}
	}
	return n
}

// edgeWeight evaluates Formula (2) for the edge of net netIdx anchored at
// region (x,y) in the given direction (the edge spans (x,y)-(x+1,y) or
// (x,y)-(x,y+1)). Utilization reads go through v's deltas when v is
// non-nil; a nil view reads the base arrays alone (net seeding time).
func (r *Router) edgeWeight(netIdx, x, y int, horz bool, v *view) float64 {
	ns := &r.nets[netIdx]
	var lenUM geom.Micron
	var d1, d2, o1, o2 float64
	var va, vb int
	if horz {
		lenUM = r.g.CellW
		cap := float64(r.g.HC)
		hu1 := r.regionHU(x, y, ns.ownH(x, y), ns.rate, v)
		hu2 := r.regionHU(x+1, y, ns.ownH(x+1, y), ns.rate, v)
		d1, d2 = hu1/cap, hu2/cap
		o1, o2 = relOver(hu1, cap), relOver(hu2, cap)
		va, vb = ns.vertex(x, y), ns.vertex(x+1, y)
	} else {
		lenUM = r.g.CellH
		cap := float64(r.g.VC)
		vu1 := r.regionVU(x, y, ns.ownV(x, y), ns.rate, v)
		vu2 := r.regionVU(x, y+1, ns.ownV(x, y+1), ns.rate, v)
		d1, d2 = vu1/cap, vu2/cap
		o1, o2 = relOver(vu1, cap), relOver(vu2, cap)
		va, vb = ns.vertex(x, y), ns.vertex(x, y+1)
	}
	fwl := 0.0
	if ns.rsmtUM > 0 {
		fwl = float64(lenUM) / float64(ns.rsmtUM) * ns.spineFactor(va, vb)
	}
	den := d1
	if d2 > den {
		den = d2
	}
	ofr := o1
	if o2 > ofr {
		ofr = o2
	}
	return r.cfg.Alpha*fwl + r.cfg.Beta*den + r.cfg.Gamma*ofr
}

func relOver(hu, cap float64) float64 {
	if hu <= cap {
		return 0
	}
	return (hu - cap) / cap
}
