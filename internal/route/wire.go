package route

// Wire encoding for Result and DrainState, the two halves of a persisted
// routing artifact (internal/artifact's disk tier). The format is a flat
// little-endian byte stream: varints for integers and lengths, IEEE-754
// bit patterns for floats (a decoded artifact must be *bit*-identical to
// the sealed one — the determinism contract is byte equality, and resumed
// ECO merges replay float additions whose order and operands must match
// exactly), and bit-packed booleans for the per-net edge masks.
//
// Versioning, checksumming, and fingerprint verification live one layer
// up, in internal/artifact's envelope (codec.go). This layer's own
// obligation is narrower but absolute: decoding NEVER panics, never
// fabricates a structurally invalid state, and allocates O(input). Every
// count is checked against the least input its elements could occupy
// before allocation. A net snapshot carries no field its pins determine:
// the decoder reads every array first, checks each length against the
// pins' bounding box (inside the grid), and only then derives the box,
// pin mask, pin count and spine norm (netState.setPins), so the mask it
// allocates is no larger than the spine array it read. Tile windows must
// match their delta arrays and member indices must lie inside the net
// slice, so malformed input surfaces as an error, not as memory
// corruption three phases later.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ---- append helpers ----

func wireU(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }
func wireI(buf []byte, v int) []byte    { return binary.AppendVarint(buf, int64(v)) }

func wireF(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func wireBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// wireBools appends a length prefix and the values packed 8 per byte, LSB
// first.
func wireBools(buf []byte, b []bool) []byte {
	buf = wireU(buf, uint64(len(b)))
	var acc byte
	var k uint
	for _, v := range b {
		if v {
			acc |= 1 << k
		}
		if k++; k == 8 {
			buf = append(buf, acc)
			acc, k = 0, 0
		}
	}
	if k > 0 {
		buf = append(buf, acc)
	}
	return buf
}

func wireF64s(buf []byte, s []float64) []byte {
	buf = wireU(buf, uint64(len(s)))
	for _, v := range s {
		buf = wireF(buf, v)
	}
	return buf
}

func wireI32s(buf []byte, s []int32) []byte {
	buf = wireU(buf, uint64(len(s)))
	for _, v := range s {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

func wireRect(buf []byte, r geom.Rect) []byte {
	buf = wireI(buf, r.MinX)
	buf = wireI(buf, r.MinY)
	buf = wireI(buf, r.MaxX)
	return wireI(buf, r.MaxY)
}

func wirePoints(buf []byte, pts []geom.Point) []byte {
	buf = wireU(buf, uint64(len(pts)))
	for _, p := range pts {
		buf = wireI(buf, p.X)
		buf = wireI(buf, p.Y)
	}
	return buf
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

func (r *wireReader) bools(what string) []bool {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	nb := (n + 7) / 8
	if nb > uint64(len(r.data)) {
		r.fail("%s of %d bits exceeds %d remaining bytes", what, n, len(r.data))
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.data[i/8]&(1<<(i%8)) != 0
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

func (r *wireReader) i32s(what string) []int32 {
	n := r.count(what, 1)
	out := make([]int32, n)
	for i := range out {
		v := r.int(what)
		if r.err != nil {
			return nil
		}
		if int(int32(v)) != v {
			r.fail("%s element %d overflows int32", what, v)
			return nil
		}
		out[i] = int32(v)
	}
	return out
}

func (r *wireReader) rect(what string) geom.Rect {
	return geom.Rect{
		MinX: r.int(what), MinY: r.int(what),
		MaxX: r.int(what), MaxY: r.int(what),
	}
}

func (r *wireReader) points(what string) []geom.Point {
	n := r.count(what, 2)
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: r.int(what), Y: r.int(what)}
	}
	return out
}

// ---- Result ----

// AppendWire appends res's wire encoding to buf and returns the extended
// slice: each tree's net and edges, then the run stats.
func (res *Result) AppendWire(buf []byte) []byte {
	buf = wireU(buf, uint64(len(res.Trees)))
	for i := range res.Trees {
		t := &res.Trees[i]
		buf = wireI(buf, t.Net)
		buf = wireU(buf, uint64(len(t.Edges)))
		for _, e := range t.Edges {
			buf = wireI(buf, e.From.X)
			buf = wireI(buf, e.From.Y)
			buf = wireI(buf, e.To.X)
			buf = wireI(buf, e.To.Y)
		}
	}
	st := &res.Stats
	buf = wireI(buf, st.Shards)
	buf = wireI(buf, st.LargestShard)
	buf = wireI(buf, st.Reconciled)
	buf = wireI(buf, st.ReconcileRounds)
	buf = wireI(buf, st.SeedChunks)
	buf = wireI(buf, st.ReconcileComponents)
	return wireI(buf, st.LargestComponent)
}

// DecodeResult decodes a Result from the front of data, returning it and
// the unconsumed tail. Malformed input of any shape returns an error;
// semantic integrity (the decoded bytes being the sealed bytes) is the
// caller's fingerprint check.
func DecodeResult(data []byte) (*Result, []byte, error) {
	r := &wireReader{data: data}
	nt := r.count("tree", 2) // net, edge count
	trees := make([]Tree, nt)
	for i := 0; i < nt && r.err == nil; i++ {
		t := &trees[i]
		t.Net = r.int("tree net")
		ne := r.count("edge", 4)
		t.Edges = make([]Edge, ne)
		for j := 0; j < ne && r.err == nil; j++ {
			t.Edges[j] = Edge{
				From: geom.Point{X: r.int("edge"), Y: r.int("edge")},
				To:   geom.Point{X: r.int("edge"), Y: r.int("edge")},
			}
		}
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
// slice. The encoding is complete: DecodeDrainState reconstructs a state
// that resumes bit-identically to the original (wire_test.go proves it).
func (ds *DrainState) AppendWire(buf []byte) []byte {
	c := &ds.cfg
	buf = wireF(buf, c.Alpha)
	buf = wireF(buf, c.Beta)
	buf = wireF(buf, c.Gamma)
	buf = wireBool(buf, c.ShieldAware)
	g := &ds.grid
	buf = wireI(buf, g.Cols)
	buf = wireI(buf, g.Rows)
	buf = wireF(buf, float64(g.CellW))
	buf = wireF(buf, float64(g.CellH))
	buf = wireI(buf, g.HC)
	buf = wireI(buf, g.VC)
	buf = wireU(buf, uint64(len(ds.snaps)))
	for i := range ds.snaps {
		s := &ds.snaps[i]
		ns := &s.ns
		buf = wireI(buf, ns.id)
		buf = wireF(buf, ns.rate)
		buf = wirePoints(buf, s.pins)
		buf = wireBools(buf, ns.aliveH)
		buf = wireBools(buf, ns.aliveV)
		buf = wireBools(buf, ns.frozenH)
		buf = wireBools(buf, ns.frozenV)
		buf = wireF(buf, float64(ns.rsmtUM))
		buf = wireI32s(buf, ns.spineDist)
	}
	buf = wireU(buf, uint64(len(ds.tiles)))
	for i := range ds.tiles {
		t := &ds.tiles[i]
		buf = wireI(buf, t.tile)
		buf = wireU(buf, uint64(len(t.members)))
		for _, m := range t.members {
			buf = wireI(buf, m)
		}
		buf = wireRect(buf, t.rect)
		for _, a := range t.arrays() {
			buf = wireF64s(buf, *a)
		}
	}
	return buf
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

	nsn := r.count("net snapshot", 23) // id, rate, pin count, four masks, rsmt, spine
	ds.snaps = make([]netSnap, nsn)
	for i := 0; i < nsn && r.err == nil; i++ {
		s := &ds.snaps[i]
		ns := &s.ns
		ns.id = r.int("net id")
		ns.rate = r.f64("net rate")
		s.pins = r.points("net pin")
		ns.aliveH = r.bools("aliveH")
		ns.aliveV = r.bools("aliveV")
		ns.frozenH = r.bools("frozenH")
		ns.frozenV = r.bools("frozenV")
		ns.rsmtUM = geom.Micron(r.f64("net rsmt"))
		ns.spineDist = r.i32s("spine dist")
		if r.err != nil {
			break
		}
		if len(s.pins) == 0 {
			r.fail("net %d has no pins", ns.id)
			break
		}
		box := geom.RectFromPoints(s.pins)
		checkWireRect(r, box, g.Cols, g.Rows, "net")
		if r.err != nil {
			break
		}
		w, h := box.Width(), box.Height()
		if len(ns.spineDist) != w*h ||
			len(ns.aliveH) != (w-1)*h || len(ns.aliveV) != w*(h-1) ||
			len(ns.frozenH) != len(ns.aliveH) || len(ns.frozenV) != len(ns.aliveV) {
			r.fail("net %d: array lengths inconsistent with its pins' %dx%d box", ns.id, w, h)
			break
		}
		ns.setPins(s.pins)
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
			if m < 0 || m >= len(ds.snaps) {
				r.fail("tile %d: member %d outside %d nets", t.tile, m, len(ds.snaps))
				break
			}
		}
		checkWireRect(r, t.rect, g.Cols, g.Rows, "tile window")
		if r.err != nil {
			break
		}
		t.cols = t.rect.Width() // derived, not on the wire
		for _, a := range t.arrays() {
			if len(*a) != t.rect.Cells() {
				r.fail("tile %d: delta arrays inconsistent with %d-cell window", t.tile, t.rect.Cells())
			}
		}
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return ds, r.data, nil
}
