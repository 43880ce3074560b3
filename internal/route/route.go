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
	"sync"

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
	// ReconcileComponents counts the reconciliation drains, one per
	// round, so it equals ReconcileRounds; LargestComponent is the net
	// count of the largest round (the serial grain of reconciliation).
	// The route wire, artifact.Fingerprint and the benchmark read both
	// under these names.
	ReconcileComponents int
	LargestComponent    int
}

// Validate checks that res fits the grid and the n nets it is used with:
// one tree per net, carrying that net's id; every edge a unit step inside
// the grid; and no edgeless tree for a net whose pins span regions, since
// Phase II places an edgeless net in its first pin's region. net(i)
// returns net i's id and pin regions, as artifact.KeyOf takes them (its
// rate is not read), and the pins are read before the next call, so a
// caller need not hold its nets as Nets. A router builds such results by
// construction. A decoded artifact's checksum and fingerprint prove only
// that its bytes are the ones sealed, so a result read back from a store
// is validated before anything indexes it.
func (r *Result) Validate(g *grid.Grid, n int, net func(i int) (id int, rate float64, pins []geom.Point)) error {
	if len(r.Trees) != n {
		return fmt.Errorf("route: result has %d trees for %d nets", len(r.Trees), n)
	}
	b := g.Bounds()
	for i := range r.Trees {
		t := &r.Trees[i]
		id, _, pins := net(i)
		if t.Net != id {
			return fmt.Errorf("route: tree %d carries net %d, want %d", i, t.Net, id)
		}
		for _, e := range t.Edges {
			dx, dy := e.To.X-e.From.X, e.To.Y-e.From.Y
			if !b.Contains(e.From) || !b.Contains(e.To) || dx*dx+dy*dy != 1 {
				return fmt.Errorf("route: tree %d edge %v-%v is not a unit step inside the %dx%d grid", i, e.From, e.To, g.Cols, g.Rows)
			}
		}
		if len(t.Edges) == 0 && slices.ContainsFunc(pins, func(p geom.Point) bool { return p != pins[0] }) {
			return fmt.Errorf("route: tree %d has no edges but its net's pins span regions", i)
		}
	}
	return nil
}

// netState is one net's record during deletion. Its pins determine its
// box, dimensions, pin count and spine norm (place, markPins); the RSMT
// length is the Steiner estimate's, and the offsets place its arrays in
// the router's slabs (netSlabs).
type netState struct {
	id   int
	bbox geom.Rect
	w, h int // bbox dims in regions

	npins int

	rsmtUM geom.Micron // RSMT estimate for f(WL) normalization
	rate   float64

	// spineNorm scales the f(WL) term's distance from the spine (spineFactor).
	spineNorm float64

	// vert is the slab index of the net's local vertex 0 in pinMask and
	// spine; edgeH and edgeV are those of its local horizontal and
	// vertical edge 0 in flags, where its w*(h-1) vertical edges follow
	// its (w-1)*h horizontal ones.
	vert, edgeH, edgeV int
}

func (n *netState) vertex(x, y int) int { return (y-n.bbox.MinY)*n.w + (x - n.bbox.MinX) }

// hEdge returns the local index of the horizontal edge between (x,y)-(x+1,y).
func (n *netState) hEdge(x, y int) int { return (y-n.bbox.MinY)*(n.w-1) + (x - n.bbox.MinX) }

// vEdge returns the local index of the vertical edge between (x,y)-(x,y+1).
func (n *netState) vEdge(x, y int) int { return (y-n.bbox.MinY)*n.w + (x - n.bbox.MinX) }

// numH and numV count the net's local horizontal and vertical edges;
// numEdges is their sum, the edges of its full connection graph and the
// items pushNet seeds.
func (n *netState) numH() int     { return (n.w - 1) * n.h }
func (n *netState) numV() int     { return n.w * (n.h - 1) }
func (n *netState) numEdges() int { return n.numH() + n.numV() }

// place sets the fields box determines and puts the net's ranges at the
// slab ends verts and edges, which it advances past them.
func (n *netState) place(box geom.Rect, verts, edges *int) {
	n.bbox = box
	n.w, n.h = box.Width(), box.Height()
	n.spineNorm = max(float64(n.w+n.h)/2, 1)
	n.vert, n.edgeH, n.edgeV = *verts, *edges, *edges+n.numH()
	*verts += n.w * n.h
	*edges += n.numEdges()
}

// Edge flags. A zero flag is an alive, unfrozen edge, so a net's range of
// a fresh flags slab is its full connection graph.
const (
	edgeDeleted uint8 = 1 << iota // deleted by a drain
	edgeFrozen                    // a bridge between pins, kept
)

// netSlabs is every net's deletion state: a record per net and, per kind
// of array, one slab the records index by offset. Nets own consecutive
// ranges in net order, so each slab is the concatenation of the nets'
// arrays. Drains and rip-ups write only flags: the records, pins, pin
// mask and spine distances are fixed once seeding has filled them, so a
// DrainState shares them with the router that captured it.
type netSlabs struct {
	nets []netState

	// pins keeps each net's input pin list (as given, duplicates and
	// order included) so DrainState snapshots can later detect whether a
	// net's definition changed — spine construction is order-sensitive,
	// so resume compares raw pin lists, not canonicalized sets.
	pins [][]geom.Point

	flags   []uint8 // per local edge: edgeDeleted, edgeFrozen
	pinMask []bool  // per local vertex: a pin region
	// spine holds, per local vertex, the BFS distance to the net's
	// estimated RSMT spine; the f(WL) term grows with it, so edges far
	// from the spine are deleted first and the surviving tree stays short.
	spine []int32
}

// layout sets every net's id, rate, pins, bounding box and slab offsets,
// in net order, and allocates the slabs at the exact sizes the boxes
// give: one counting pass, since the pins alone determine the boxes.
func (s *netSlabs) layout(nets []Net) {
	s.nets = make([]netState, len(nets))
	s.pins = make([][]geom.Point, len(nets))
	verts, edges := 0, 0
	for i := range nets {
		ns := &s.nets[i]
		ns.id, ns.rate = nets[i].ID, nets[i].Rate
		ns.place(geom.RectFromPoints(nets[i].Pins), &verts, &edges)
		s.pins[i] = nets[i].Pins
	}
	s.flags = make([]uint8, edges)
	s.pinMask = make([]bool, verts)
	s.spine = make([]int32, verts)
}

// markPins sets net i's pin mask, its range of the slab, and its pin
// count from its pins.
func (s *netSlabs) markPins(i int) {
	ns := &s.nets[i]
	mask := s.pinMask[ns.vert : ns.vert+ns.w*ns.h]
	ns.npins = 0
	for _, p := range s.pins[i] {
		if v := ns.vertex(p.X, p.Y); !mask[v] {
			mask[v] = true
			ns.npins++
		}
	}
}

// graph is one net's connection graph: its record and its ranges of the
// slabs, each capped at its own length. Walks over a whole net read it;
// the drain step indexes the slabs through the record (netState.flag).
type graph struct {
	*netState
	flagsH, flagsV []uint8 // per local horizontal and vertical edge
	pinMask        []bool
	spine          []int32
}

func (s *netSlabs) graph(i int) graph {
	ns := &s.nets[i]
	v, n := ns.edgeV+ns.numV(), ns.vert+ns.w*ns.h
	return graph{netState: ns,
		flagsH:  s.flags[ns.edgeH:ns.edgeV:ns.edgeV],
		flagsV:  s.flags[ns.edgeV:v:v],
		pinMask: s.pinMask[ns.vert:n:n],
		spine:   s.spine[ns.vert:n:n],
	}
}

// flag returns the flags-slab index of the net's local edge e: the hot
// paths index the slabs through the record, where graph would cut four
// ranges per pop.
func (n *netState) flag(e int, horz bool) int {
	if horz {
		return n.edgeH + e
	}
	return n.edgeV + e
}

// Router carries the shared deletion state.
type Router struct {
	g   *grid.Grid
	cfg Config

	netSlabs

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

	// lent holds the workspaces no pool task is using (borrow, giveBack).
	lentMu sync.Mutex
	lent   []*workspace

	// overUse and overNets are overflowNets' counts and result, kept
	// across rounds.
	overUse  []int32
	overNets []int
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
	if err := r.seed(ctx, orSerial(pool, nil, 0), r.build, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// newRouter allocates the deletion state for nets on g — the records and
// slabs laid out, the base utilization zeroed — with the canonical
// seeding chunk count.
func newRouter(g *grid.Grid, cfg Config, nets []Net) *Router {
	r := &Router{
		g: g, cfg: cfg,
		seedChunks: (len(nets) + seedChunk - 1) / seedChunk,
		base:       newWindow(g.Bounds()),
	}
	r.layout(nets)
	return r
}

// seed constructs every net's state — the one seeding path of a fresh
// router and an ECO resume. It splits into two parts:
//
//   - Pure per-net work: build(i, sc) fills net i's record and slab
//     ranges (a fresh connection graph, or one restored from a snapshot),
//     working in sc, the scratch of the workspace its chunk borrowed. It
//     reads only immutable inputs and writes disjoint ranges, so it runs
//     chunked on the pool (the bulk of seeding cost: Steiner estimate +
//     BFS per net).
//   - Order-dependent work, serial in ascending net order: every net's
//     expected utilization goes into the base, and the nets push selects
//     (nil: all) put their edges in r.seeded with initial weights. Net i's
//     weights read the base state left by nets 0..i.
//
// The split makes the seeded Router byte-identical to serial construction
// at any worker count.
func (r *Router) seed(ctx context.Context, pool Pool, build func(i int, sc *seedScratch), push []bool) error {
	tasks := make([]func() error, r.seedChunks)
	for c := range tasks {
		lo, hi := c*seedChunk, min((c+1)*seedChunk, len(r.nets))
		tasks[c] = func() error {
			ws := r.borrow()
			for i := lo; i < hi; i++ {
				build(i, &ws.seed)
			}
			r.giveBack(ws)
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

// seedScratch is a seed chunk's working memory, reused by each net it
// builds and, in a lent workspace, by the chunks after it: the Steiner
// estimate's buffers and buildSpine's BFS queue. Nothing is allocated per
// net: what a net keeps lives in the slabs.
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

// build constructs net i's connection graph — the pure per-net part of
// seeding — in sc: its pin mask, RSMT estimate and spine distances. Its
// flags stay zero, the full connection graph. It reads only the
// immutable grid and writes only net i's record and ranges, so disjoint
// nets can be constructed concurrently.
func (r *Router) build(i int, sc *seedScratch) {
	r.markPins(i)
	length, points, edges := sc.est.Estimate(r.pins[i], r.g.CellW, r.g.CellH)
	r.nets[i].rsmtUM = length
	g := r.graph(i)
	g.buildSpine(points, edges, &sc.queue)
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
				key: r.edgeWeight(ns, x, y, true, nil)})
		}
	}
	for y := bbox.MinY; y < bbox.MaxY; y++ {
		for x := bbox.MinX; x <= bbox.MaxX; x++ {
			*items = append(*items, item{net: int32(idx), edge: packEdge(ns.vEdge(x, y), false),
				key: r.edgeWeight(ns, x, y, false, nil)})
		}
	}
}

// buildSpine rasterizes the estimated RSMT topology — points and the
// edges between them, from steiner.Scratch.Estimate — into the bbox (each
// topology edge embedded as a horizontal-then-vertical L) and computes
// every local vertex's BFS distance from that spine. The BFS runs in
// *queue, which it grows as needed and leaves for the next net.
func (n *graph) buildSpine(points []geom.Point, edges [][2]int, queue *[]int32) {
	for i := range n.spine {
		n.spine[i] = -1
	}
	q := (*queue)[:0]
	mark := func(p geom.Point) {
		v := n.vertex(p.X, p.Y)
		if n.spine[v] < 0 {
			n.spine[v] = 0
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
			if n.spine[nv] < 0 {
				n.spine[nv] = n.spine[v] + 1
				q = append(q, int32(nv))
			}
		}
	}
	*queue = q
}

// spineFactor returns the f(WL) multiplier for an edge between net ns's
// local vertices a and b: 1 on the spine, growing with distance from it.
func (r *Router) spineFactor(ns *netState, a, b int) float64 {
	d := float64(r.spine[ns.vert+a]+r.spine[ns.vert+b]) / 2
	return 1 + 2*d/ns.spineNorm
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

// ownH counts net ns's surviving horizontal edges incident to region
// (x,y), each contributing 0.5 expected tracks.
func (r *Router) ownH(ns *netState, x, y int) float64 {
	n := 0.0
	if y >= ns.bbox.MinY && y <= ns.bbox.MaxY {
		if x > ns.bbox.MinX && x <= ns.bbox.MaxX && r.flags[ns.edgeH+ns.hEdge(x-1, y)]&edgeDeleted == 0 {
			n += 0.5
		}
		if x >= ns.bbox.MinX && x < ns.bbox.MaxX && r.flags[ns.edgeH+ns.hEdge(x, y)]&edgeDeleted == 0 {
			n += 0.5
		}
	}
	return n
}

func (r *Router) ownV(ns *netState, x, y int) float64 {
	n := 0.0
	if x >= ns.bbox.MinX && x <= ns.bbox.MaxX {
		if y > ns.bbox.MinY && y <= ns.bbox.MaxY && r.flags[ns.edgeV+ns.vEdge(x, y-1)]&edgeDeleted == 0 {
			n += 0.5
		}
		if y >= ns.bbox.MinY && y < ns.bbox.MaxY && r.flags[ns.edgeV+ns.vEdge(x, y)]&edgeDeleted == 0 {
			n += 0.5
		}
	}
	return n
}

// edgeWeight evaluates Formula (2) for the edge of net ns anchored at
// region (x,y) in the given direction (the edge spans (x,y)-(x+1,y) or
// (x,y)-(x,y+1)). Utilization reads go through v's deltas when v is
// non-nil; a nil view reads the base arrays alone (net seeding time).
func (r *Router) edgeWeight(ns *netState, x, y int, horz bool, v *view) float64 {
	var lenUM geom.Micron
	var d1, d2, o1, o2 float64
	var va, vb int
	if horz {
		lenUM = r.g.CellW
		cap := float64(r.g.HC)
		hu1 := r.regionHU(x, y, r.ownH(ns, x, y), ns.rate, v)
		hu2 := r.regionHU(x+1, y, r.ownH(ns, x+1, y), ns.rate, v)
		d1, d2 = hu1/cap, hu2/cap
		o1, o2 = relOver(hu1, cap), relOver(hu2, cap)
		va, vb = ns.vertex(x, y), ns.vertex(x+1, y)
	} else {
		lenUM = r.g.CellH
		cap := float64(r.g.VC)
		vu1 := r.regionVU(x, y, r.ownV(ns, x, y), ns.rate, v)
		vu2 := r.regionVU(x, y+1, r.ownV(ns, x, y+1), ns.rate, v)
		d1, d2 = vu1/cap, vu2/cap
		o1, o2 = relOver(vu1, cap), relOver(vu2, cap)
		va, vb = ns.vertex(x, y), ns.vertex(x, y+1)
	}
	fwl := 0.0
	if ns.rsmtUM > 0 {
		fwl = float64(lenUM) / float64(ns.rsmtUM) * r.spineFactor(ns, va, vb)
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
