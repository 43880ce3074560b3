package route

// Wire encoding for Result and DrainState, the two halves of a persisted
// routing artifact (internal/artifact's disk tier). The format is a flat
// little-endian byte stream: varints for integers and lengths, IEEE-754
// bit patterns for floats (a decoded artifact must be *bit*-identical to
// the sealed one — the determinism contract is byte equality, and resumed
// ECO merges replay float additions whose order and operands must match
// exactly), and the edge-flag slab packed two bits per edge. One writer
// (wireWriter) both appends the grammar and sizes it, so an encoder can
// allocate its output once, at its exact length (WireSize).
//
// Versioning, checksumming, and fingerprint verification live one layer
// up, in internal/artifact's envelope (codec.go). This layer's own
// obligation is narrower but absolute: decoding NEVER panics, never
// fabricates a structurally invalid state, and allocates O(input), in a
// few arrays per tile and none per net or tree. Every count is
// checked against the least input its elements could occupy before
// allocation, and the totals a section declares (a result's edges, a
// drain state's pins) must be used up exactly. A drain state stores no
// field a net's pins determine: its nets' records come first, and each
// record's pins fix the net's bounding box, which must lie inside the
// grid. Those boxes size the flags and spine slabs, so each box's cells
// are counted against the input still unread, one byte per spine
// distance at least, before anything is allocated for them; then the
// decoder derives the pin masks (netSlabs.markPins) and reads the
// flags and spine distances into their slabs. Tile windows must match
// their delta arrays and member indices must lie inside the net slice, so
// malformed input surfaces as an error, not as memory corruption three
// phases later. A resumed drain's weights read a net's RSMT length, its
// spine distances and the tile deltas as decoded, so each must be one a
// run could have written. The RSMT length must be finite: a NaN weight
// has no place in the drain's total order (item.order). A spine distance
// is a BFS distance inside the net's box from a spine through its pins,
// so it lies in [0, w+h−2] and is 0 at a pin region. A drain only
// releases what its members' full graphs added, at most one track and
// one unit of rate sum per member per region and direction, so a tile
// delta of an m-member tile lies in [−2m, 0] (twice the bound, for slack;
// NaN and infinities fail it too). The other floats only have to equal
// the resume's own config, grid and validated nets.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geom"
)

// ---- writer ----

// wireWriter is the one encoder of the wire grammar. Appending, it
// extends buf; sizing, it only adds up in n the bytes it would append, so
// WireSize and AppendWire cannot disagree.
type wireWriter struct {
	buf    []byte
	sizing bool
	n      int
}

func (w *wireWriter) uvarint(v uint64) {
	if w.sizing {
		w.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// int writes v zigzag-encoded, as binary.AppendVarint does.
func (w *wireWriter) int(v int) {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	w.uvarint(ux)
}

func (w *wireWriter) f64(v float64) {
	if w.sizing {
		w.n += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

func (w *wireWriter) bool(v bool) {
	switch {
	case w.sizing:
		w.n++
	case v:
		w.buf = append(w.buf, 1)
	default:
		w.buf = append(w.buf, 0)
	}
}

// f64s writes a length prefix and the values.
func (w *wireWriter) f64s(s []float64) {
	w.uvarint(uint64(len(s)))
	if w.sizing {
		w.n += 8 * len(s)
		return
	}
	for _, v := range s {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
	}
}

// flags writes edge flags packed four per byte, two bits each, the first
// flag in the lowest bits. Its length is the reader's to know.
func (w *wireWriter) flags(f []uint8) {
	if w.sizing {
		w.n += (len(f) + 3) / 4
		return
	}
	for i := 0; i < len(f); i += 4 {
		var b byte
		for j, v := range f[i:min(i+4, len(f))] {
			b |= v << (2 * j)
		}
		w.buf = append(w.buf, b)
	}
}

func (w *wireWriter) point(p geom.Point) {
	w.int(p.X)
	w.int(p.Y)
}

func (w *wireWriter) rect(r geom.Rect) {
	w.int(r.MinX)
	w.int(r.MinY)
	w.int(r.MaxX)
	w.int(r.MaxY)
}

// ---- bounds-checked reader ----

// wireReader consumes the stream front to back, latching the first error;
// after a failure every read returns a zero value, so decode loops can
// run to completion and check err once.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("route: wire: "+format, args...)
	}
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("truncated %s", what)
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *wireReader) int(what string) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("truncated %s", what)
		return 0
	}
	r.data = r.data[n:]
	return int(v)
}

// count reads a length prefix and rejects any count the remaining input
// cannot possibly hold, given that every element encodes to at least
// size bytes, so a corrupted length can never drive a giant allocation.
func (r *wireReader) count(what string, size int) int {
	v := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.data)/size) {
		r.fail("%s count %d exceeds %d remaining bytes", what, v, len(r.data))
		return 0
	}
	return int(v)
}

func (r *wireReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail("truncated %s", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// finite fails unless v is a finite number.
func (r *wireReader) finite(what string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("%s %g is not finite", what, v)
	}
}

func (r *wireReader) bool(what string) bool {
	if r.err != nil {
		return false
	}
	if len(r.data) < 1 {
		r.fail("truncated %s", what)
		return false
	}
	b := r.data[0]
	r.data = r.data[1:]
	if b > 1 {
		r.fail("%s byte %d is not a bool", what, b)
		return false
	}
	return b == 1
}

// flags reads n edge flags packed four per byte (wireWriter.flags). The
// padding bits of a last, partly filled byte must be zero, so an encoding
// is the only one of its state.
func (r *wireReader) flags(n int) []uint8 {
	nb := (n + 3) / 4
	if r.err != nil {
		return nil
	}
	if nb > len(r.data) {
		r.fail("flags of %d edges exceed %d remaining bytes", n, len(r.data))
		return nil
	}
	out := make([]uint8, n)
	for i := range out {
		out[i] = r.data[i/4] >> (2 * (i % 4)) & 3
	}
	if n%4 != 0 && r.data[nb-1]>>(2*(n%4)) != 0 {
		r.fail("flags padding bits set")
		return nil
	}
	r.data = r.data[nb:]
	return out
}

func (r *wireReader) f64s(what string) []float64 {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)/8) {
		r.fail("%s of %d floats exceeds %d remaining bytes", what, n, len(r.data))
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[8*i:]))
	}
	r.data = r.data[8*n:]
	return out
}

func (r *wireReader) rect(what string) geom.Rect {
	return geom.Rect{
		MinX: r.int(what), MinY: r.int(what),
		MaxX: r.int(what), MaxY: r.int(what),
	}
}

func (r *wireReader) point(what string) geom.Point {
	return geom.Point{X: r.int(what), Y: r.int(what)}
}

// ---- Result ----

// AppendWire appends res's wire encoding to buf and returns the extended
// slice: the tree count and their total edge count, each tree's net and
// edges, then the run stats.
func (res *Result) AppendWire(buf []byte) []byte {
	w := wireWriter{buf: buf}
	res.encode(&w)
	return w.buf
}

// WireSize returns the length of res's wire encoding.
func (res *Result) WireSize() int {
	w := wireWriter{sizing: true}
	res.encode(&w)
	return w.n
}

func (res *Result) encode(w *wireWriter) {
	edges := 0
	for i := range res.Trees {
		edges += len(res.Trees[i].Edges)
	}
	w.uvarint(uint64(len(res.Trees)))
	w.uvarint(uint64(edges))
	for i := range res.Trees {
		t := &res.Trees[i]
		w.int(t.Net)
		w.uvarint(uint64(len(t.Edges)))
		for _, e := range t.Edges {
			w.point(e.From)
			w.point(e.To)
		}
	}
	st := &res.Stats
	w.int(st.Shards)
	w.int(st.LargestShard)
	w.int(st.Reconciled)
	w.int(st.ReconcileRounds)
	w.int(st.SeedChunks)
	w.int(st.ReconcileComponents)
	w.int(st.LargestComponent)
}

// DecodeResult decodes a Result from the front of data, returning it and
// the unconsumed tail. Every tree's edges are carved from one array of
// the declared total, as extract lays them out. Malformed input of any
// shape returns an error; semantic integrity (the decoded bytes being the
// sealed bytes) is the caller's fingerprint check.
func DecodeResult(data []byte) (*Result, []byte, error) {
	r := &wireReader{data: data}
	nt := r.count("tree", 2) // net, edge count
	edges := make([]Edge, r.count("edge", 4))
	trees := make([]Tree, nt)
	for i := 0; i < nt && r.err == nil; i++ {
		t := &trees[i]
		t.Net = r.int("tree net")
		ne := r.uvarint("tree edge count")
		if r.err == nil && ne > uint64(len(edges)) {
			r.fail("tree %d: %d edges past the %d declared ones left", i, ne, len(edges))
		}
		if r.err != nil {
			break
		}
		t.Edges, edges = edges[:ne:ne], edges[ne:]
		for j := range t.Edges {
			t.Edges[j] = Edge{From: r.point("edge"), To: r.point("edge")}
		}
	}
	if r.err == nil && len(edges) != 0 {
		r.fail("%d declared edges in no tree", len(edges))
	}
	stats := RunStats{
		Shards:              r.int("stats"),
		LargestShard:        r.int("stats"),
		Reconciled:          r.int("stats"),
		ReconcileRounds:     r.int("stats"),
		SeedChunks:          r.int("stats"),
		ReconcileComponents: r.int("stats"),
		LargestComponent:    r.int("stats"),
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return &Result{Trees: trees, Stats: stats}, r.data, nil
}

// ---- DrainState ----

// maxWireDim bounds decoded grid dimensions. Real grids are a few hundred
// regions on a side; the bound exists so corrupted dimensions cannot
// overflow the index arithmetic the validations below perform.
const maxWireDim = 1 << 20

// AppendWire appends ds's wire encoding to buf and returns the extended
// slice: the router config and grid; the net and pin counts; each net's
// id, rate, RSMT length and pins; the flags slab; the spine slab; and
// each tile's id, members, window and six delta arrays. The slabs go out
// whole: nets own consecutive ranges in net order, which the decoder
// lays out again from the pins. The encoding is complete:
// DecodeDrainState reconstructs a state that resumes bit-identically to
// the original (wire_test.go proves it).
func (ds *DrainState) AppendWire(buf []byte) []byte {
	w := wireWriter{buf: buf}
	ds.encode(&w)
	return w.buf
}

// WireSize returns the length of ds's wire encoding.
func (ds *DrainState) WireSize() int {
	w := wireWriter{sizing: true}
	ds.encode(&w)
	return w.n
}

func (ds *DrainState) encode(w *wireWriter) {
	c := &ds.cfg
	w.f64(c.Alpha)
	w.f64(c.Beta)
	w.f64(c.Gamma)
	w.bool(c.ShieldAware)
	g := &ds.grid
	w.int(g.Cols)
	w.int(g.Rows)
	w.f64(float64(g.CellW))
	w.f64(float64(g.CellH))
	w.int(g.HC)
	w.int(g.VC)
	pins := 0
	for _, p := range ds.pins {
		pins += len(p)
	}
	w.uvarint(uint64(len(ds.nets)))
	w.uvarint(uint64(pins))
	for i := range ds.nets {
		ns := &ds.nets[i]
		w.int(ns.id)
		w.f64(ns.rate)
		w.f64(float64(ns.rsmtUM))
		w.uvarint(uint64(len(ds.pins[i])))
		for _, p := range ds.pins[i] {
			w.point(p)
		}
	}
	w.flags(ds.flags)
	for _, d := range ds.spine {
		w.int(int(d))
	}
	w.uvarint(uint64(len(ds.tiles)))
	for i := range ds.tiles {
		t := &ds.tiles[i]
		w.int(t.tile)
		w.uvarint(uint64(len(t.members)))
		for _, m := range t.members {
			w.int(m)
		}
		w.rect(t.rect)
		for _, a := range t.arrays() {
			w.f64s(*a)
		}
	}
}

// checkWireRect validates that rect lies inside the cols×rows grid.
func checkWireRect(r *wireReader, rect geom.Rect, cols, rows int, what string) {
	if rect.MinX < 0 || rect.MinY < 0 || rect.MinX > rect.MaxX || rect.MinY > rect.MaxY ||
		rect.MaxX >= cols || rect.MaxY >= rows {
		r.fail("%s bbox [%d,%d]-[%d,%d] outside %dx%d grid", what, rect.MinX, rect.MinY, rect.MaxX, rect.MaxY, cols, rows)
	}
}

// DecodeDrainState decodes a DrainState from the front of data, returning
// it and the unconsumed tail. Beyond stream well-formedness it enforces
// every structural invariant a resume indexes through — see the file
// comment — so a successfully decoded state is safe to resume from even
// if its content is garbage (RunShardedResume's own config and grid
// checks then reject states for the wrong problem).
func DecodeDrainState(data []byte) (*DrainState, []byte, error) {
	r := &wireReader{data: data}
	ds := &DrainState{}
	c := &ds.cfg
	c.Alpha = r.f64("cfg")
	c.Beta = r.f64("cfg")
	c.Gamma = r.f64("cfg")
	c.ShieldAware = r.bool("cfg")
	g := &ds.grid
	g.Cols = r.int("grid dims")
	g.Rows = r.int("grid dims")
	g.CellW = geom.Micron(r.f64("grid cell"))
	g.CellH = geom.Micron(r.f64("grid cell"))
	g.HC = r.int("grid capacity")
	g.VC = r.int("grid capacity")
	if r.err == nil {
		for _, d := range []int{g.Cols, g.Rows} {
			if d < 1 || d > maxWireDim {
				r.fail("dimension %d outside [1, %d]", d, maxWireDim)
				break
			}
		}
	}

	// The records, and each net's pins carved from one array of the
	// declared total.
	nn := r.count("net", 20) // id, rate, rsmt, pin count, a pin
	pins := make([]geom.Point, r.count("pin", 2))
	s := &ds.netSlabs
	s.nets = make([]netState, nn)
	s.pins = make([][]geom.Point, nn)
	verts, edges := 0, 0
	for i := 0; i < nn && r.err == nil; i++ {
		ns := &s.nets[i]
		ns.id = r.int("net id")
		ns.rate = r.f64("net rate")
		ns.rsmtUM = geom.Micron(r.f64("net rsmt"))
		r.finite("net rsmt", float64(ns.rsmtUM))
		np := r.uvarint("net pin count")
		if r.err == nil && (np == 0 || np > uint64(len(pins))) {
			r.fail("net %d: %d pins, want 1 to the %d declared ones left", ns.id, np, len(pins))
		}
		if r.err != nil {
			break
		}
		s.pins[i], pins = pins[:np:np], pins[np:]
		for j := range s.pins[i] {
			s.pins[i][j] = r.point("net pin")
		}
		box := geom.RectFromPoints(s.pins[i])
		checkWireRect(r, box, g.Cols, g.Rows, "net")
		if r.err != nil {
			break
		}
		ns.place(box, &verts, &edges)
		// Every vertex takes a spine distance of a byte or more, so a box
		// whose cells the unread input cannot back fails here, before
		// anything is allocated for it.
		if verts > len(r.data) {
			r.fail("net %d: its box takes the nets' vertices to %d, past the %d bytes left", ns.id, verts, len(r.data))
		}
	}
	if r.err == nil && len(pins) != 0 {
		r.fail("%d declared pins in no net", len(pins))
	}
	if r.err == nil && verts+(edges+3)/4 > len(r.data) {
		r.fail("flags of %d edges and spine of %d vertices exceed %d remaining bytes", edges, verts, len(r.data))
	}

	// The slabs, and the pin masks the pins determine.
	s.flags = r.flags(edges)
	if r.err == nil {
		s.pinMask = make([]bool, verts)
		s.spine = make([]int32, verts)
	}
	for i := 0; i < nn && r.err == nil; i++ {
		s.markPins(i)
		ns := s.graph(i)
		for v := range ns.spine {
			d := r.int("spine dist")
			if r.err == nil && (d < 0 || d > ns.w+ns.h-2 || ns.pinMask[v] && d != 0) {
				r.fail("net %d: spine distance %d at local vertex %d, want [0, %d] and 0 at a pin", ns.id, d, v, ns.w+ns.h-2)
			}
			if r.err != nil {
				break
			}
			ns.spine[v] = int32(d)
		}
	}

	ntl := r.count("tile snapshot", 12) // id, member count, window, six arrays
	ds.tiles = make([]tileSnap, ntl)
	tileCols, tileRows := tiling(g.Cols, g.Rows)
	for i := 0; i < ntl && r.err == nil; i++ {
		t := &ds.tiles[i]
		t.tile = r.int("tile id")
		nm := r.count("tile member", 1)
		t.members = make([]int, nm)
		for j := 0; j < nm && r.err == nil; j++ {
			t.members[j] = r.int("tile member")
		}
		t.rect = r.rect("tile window")
		for _, a := range t.arrays() {
			*a = r.f64s("tile deltas")
		}
		if r.err != nil {
			break
		}
		if t.tile < 0 || t.tile >= tileCols*tileRows {
			r.fail("tile %d outside %dx%d tiling", t.tile, tileCols, tileRows)
			break
		}
		for _, m := range t.members {
			if m < 0 || m >= len(s.nets) {
				r.fail("tile %d: member %d outside %d nets", t.tile, m, len(s.nets))
				break
			}
		}
		checkWireRect(r, t.rect, g.Cols, g.Rows, "tile window")
		if r.err != nil {
			break
		}
		t.cols = t.rect.Width() // derived, not on the wire
		lo := -2 * float64(len(t.members))
		for _, a := range t.arrays() {
			if len(*a) != t.rect.Cells() {
				r.fail("tile %d: delta arrays inconsistent with %d-cell window", t.tile, t.rect.Cells())
			}
			for _, v := range *a {
				if !(lo <= v && v <= 0) {
					r.fail("tile %d: delta %g outside [%g, 0]", t.tile, v, lo)
					break
				}
			}
		}
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return ds, r.data, nil
}
