package route

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
)

// wireFixture routes a random netlist and returns the result plus its
// drain state — a realistic encoding subject with multi-pin nets, partial
// deletion masks, and several populated tiles.
func wireFixture(t testing.TB, seed int64, dim, nNets int) (*grid.Grid, []Net, *Result, *DrainState) {
	t.Helper()
	g, err := grid.New(dim, dim, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets := randomNets(seed, nNets, dim, dim)
	r, err := NewRouter(g, Config{ShieldAware: true}, nets)
	if err != nil {
		t.Fatal(err)
	}
	res, ds, err := r.RunShardedState(context.Background(), nil, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g, nets, res, ds
}

// TestResultWireRoundTrip: encode/decode reproduces the Result exactly,
// and WireSize is the encoding's length.
func TestResultWireRoundTrip(t *testing.T) {
	_, _, res, _ := wireFixture(t, 1, 16, 80)
	buf := res.AppendWire(nil)
	if n := res.WireSize(); n != len(buf) {
		t.Fatalf("WireSize %d, encoding %d bytes", n, len(buf))
	}
	dec, rest, err := DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes unconsumed", len(rest))
	}
	if !reflect.DeepEqual(dec, res) {
		t.Fatal("decoded result differs from original")
	}
}

// TestDrainWireRoundTrip: encode/decode reproduces the DrainState exactly
// (reflect.DeepEqual reaches every unexported field), and WireSize is the
// encoding's length.
func TestDrainWireRoundTrip(t *testing.T) {
	_, _, _, ds := wireFixture(t, 2, 16, 80)
	buf := ds.AppendWire(nil)
	if n := ds.WireSize(); n != len(buf) {
		t.Fatalf("WireSize %d, encoding %d bytes", n, len(buf))
	}
	dec, rest, err := DecodeDrainState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes unconsumed", len(rest))
	}
	if !reflect.DeepEqual(dec, ds) {
		t.Fatal("decoded drain state differs from original")
	}
}

// TestDecodedDrainResumesIdentically is the point of the wire format: an
// ECO resume from a decoded DrainState must be byte-identical to a resume
// from the original in-memory one — trees, stats, and the chained
// snapshot — at multiple worker counts. This is what makes a disk-loaded
// artifact a legitimate ECO base in another process.
func TestDecodedDrainResumesIdentically(t *testing.T) {
	g, nets, _, ds := wireFixture(t, 3, 16, 80)
	buf := ds.AppendWire(nil)
	dec, _, err := DecodeDrainState(buf)
	if err != nil {
		t.Fatal(err)
	}
	edited := mutateNets(3, nets, 16, 16)
	for _, workers := range []int{0, 4} {
		var pool Pool
		if workers > 0 {
			pool = engine.New(engine.Config{Workers: workers})
		}
		refRes, refDS, refES, err := RunShardedResume(context.Background(), g, Config{ShieldAware: true}, edited, pool, ShardConfig{}, ds)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, gotDS, gotES, err := RunShardedResume(context.Background(), g, Config{ShieldAware: true}, edited, pool, ShardConfig{}, dec)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, refRes, gotRes, true)
		if refES != gotES {
			t.Fatalf("workers %d: ECO stats diverged: %+v vs %+v", workers, refES, gotES)
		}
		if !reflect.DeepEqual(refDS, gotDS) {
			t.Fatalf("workers %d: chained drain states diverged", workers)
		}
		if n, size := len(gotDS.AppendWire(nil)), gotDS.WireSize(); n != size {
			t.Fatalf("workers %d: chained state encodes to %d bytes, sized %d", workers, n, size)
		}
	}
}

// TestWireDecodeRobustness: the decoders must never panic on malformed
// input. Every truncation of a valid stream must error (the grammar only
// completes at the full length), and arbitrary byte corruption must
// decode, error, or reject — but never crash. Semantic integrity under
// corruption is the artifact envelope's checksum, not this layer's job.
func TestWireDecodeRobustness(t *testing.T) {
	_, _, res, ds := wireFixture(t, 4, 8, 16)
	for name, enc := range map[string][]byte{
		"result": res.AppendWire(nil),
		"drain":  ds.AppendWire(nil),
	} {
		decode := DecodeResultBytes
		if name == "drain" {
			decode = DecodeDrainBytes
		}
		for i := 0; i < len(enc); i++ {
			if err := decode(enc[:i]); err == nil {
				t.Fatalf("%s truncated at %d/%d decoded without error", name, i, len(enc))
			}
		}
		step := len(enc)/512 + 1
		for i := 0; i < len(enc); i += step {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 0xa5
			decode(mut) // must not panic; any error value is acceptable
		}
	}
}

// DecodeResultBytes / DecodeDrainBytes adapt the decoders to one shape
// for the robustness sweep.
func DecodeResultBytes(data []byte) error { _, _, err := DecodeResult(data); return err }
func DecodeDrainBytes(data []byte) error  { _, _, err := DecodeDrainState(data); return err }

// TestDecodersAllocateLinearly: a decode allocates at most 64 bytes per
// input byte plus 1 MiB, for the fixture encodings, about 512 truncations
// of each, and crafted inputs that claim far more than they hold — counts
// and totals of one element per remaining byte, and a net whose pins span
// a 2^20 x 2^20 grid with no slabs behind them, whose pin mask alone
// would take a terabyte. Not parallel: TotalAlloc is process-wide.
func TestDecodersAllocateLinearly(t *testing.T) {
	_, _, res, ds := wireFixture(t, 4, 8, 16)
	type input struct {
		name    string
		decode  func([]byte) error
		data    []byte
		crafted bool
	}
	var inputs []input
	for _, fx := range []input{
		{name: "result", decode: DecodeResultBytes, data: res.AppendWire(nil)},
		{name: "drain", decode: DecodeDrainBytes, data: ds.AppendWire(nil)},
	} {
		for i := len(fx.data); i >= 0; i -= len(fx.data)/512 + 1 {
			inputs = append(inputs, input{fmt.Sprintf("%s[:%d]", fx.name, i), fx.decode, fx.data[:i], false})
		}
	}

	const filler = 1 << 16
	uv := binary.AppendUvarint
	claim := func(head []byte) []byte { return append(uv(head, filler), make([]byte, filler)...) }
	// A state with no nets and no tiles ends in its net, pin and tile
	// counts, all zero.
	header := (&DrainState{cfg: ds.cfg, grid: ds.grid}).AppendWire(nil)
	header = header[: len(header)-3 : len(header)-3]
	corner := geom.Point{X: maxWireDim - 1, Y: maxWireDim - 1}
	huge := ds.grid
	huge.Cols, huge.Rows = maxWireDim, maxWireDim
	bigGrid := &DrainState{cfg: ds.cfg, grid: huge, netSlabs: netSlabs{
		nets: []netState{{rate: 0.3}}, pins: [][]geom.Point{{{}, corner}}}}
	inputs = append(inputs,
		input{"tree count", DecodeResultBytes, claim(nil), true},
		input{"edge count", DecodeResultBytes, claim(uv(nil, 0)), true},
		input{"net count", DecodeDrainBytes, claim(header), true},
		input{"pin count", DecodeDrainBytes, claim(uv(header, 0)), true},
		input{"tile count", DecodeDrainBytes, claim(uv(uv(header, 0), 0)), true},
		input{"pin box", DecodeDrainBytes, bigGrid.AppendWire(nil), true},
	)

	for _, in := range inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := in.decode(in.data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(in.data))+1<<20; n > limit {
			t.Errorf("%s: %d input bytes allocated %d bytes, limit %d", in.name, len(in.data), n, limit)
		}
		if in.crafted && err == nil {
			t.Errorf("%s: crafted input decoded without error", in.name)
		}
	}
}

// TestDecodersAllocsFlat: a decode allocates a fixed number of arrays per
// tile and none per net or tree. Drain states of 128 and 1,280 two-pin
// nets on an 8x8 grid, anchored region by region so that both fill its 64
// tiles, decode in as many allocations, and so do their results. The
// collector stays off while they are counted, since a cycle can add a
// runtime allocation of its own. Not parallel: the setting is process-wide.
func TestDecodersAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, err := grid.New(8, 8, 100, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	route := func(n int) (*Result, *DrainState) {
		nets := make([]Net, n)
		for i := range nets {
			x, y := i%8, i/8%8
			far := geom.Point{X: min(x+1, 7), Y: y}
			if i%2 == 1 {
				far = geom.Point{X: x, Y: min(y+1, 7)}
			}
			nets[i] = Net{ID: i, Pins: []geom.Point{{X: x, Y: y}, far}, Rate: 0.3}
		}
		r, err := NewRouter(g, Config{ShieldAware: true}, nets)
		if err != nil {
			t.Fatal(err)
		}
		res, ds, err := r.RunShardedState(context.Background(), nil, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.tiles) != 64 {
			t.Fatalf("%d nets fill %d tiles, want 64", n, len(ds.tiles))
		}
		return res, ds
	}
	smallRes, small := route(128)
	largeRes, large := route(1280)
	for _, c := range []struct {
		name         string
		decode       func([]byte) error
		small, large []byte
	}{
		{"result", DecodeResultBytes, smallRes.AppendWire(nil), largeRes.AppendWire(nil)},
		{"drain state", DecodeDrainBytes, small.AppendWire(nil), large.AppendWire(nil)},
	} {
		count := func(data []byte) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := c.decode(data); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := count(c.small), count(c.large); a != b {
			t.Errorf("%s: decoding %d bytes allocated %v times, %d bytes %v times", c.name, len(c.small), a, len(c.large), b)
		}
	}
}

// TestDecodeRejectsPinMismatch: the decoder sizes a net's flags and spine
// distances by the bounding box of its pin list. A resume restores the
// snapshot and re-drains the net over that box, so arrays sized for a
// wider box would send the connectivity search outside the pin mask. A
// state whose pins no longer span its arrays encodes slabs the decoder
// reads out of step, and fails.
func TestDecodeRejectsPinMismatch(t *testing.T) {
	_, _, _, ds := wireFixture(t, 4, 8, 16)
	k := slices.IndexFunc(ds.pins, func(pins []geom.Point) bool {
		return geom.RectFromPoints(pins[:1]) != geom.RectFromPoints(pins)
	})
	if k < 0 {
		t.Fatal("fixture has no multi-region net; it drifted")
	}
	if _, _, err := DecodeDrainState(ds.AppendWire(nil)); err != nil {
		t.Fatalf("unmutated fixture: %v", err)
	}
	t.Run("bbox wider than pins", func(t *testing.T) {
		mut := *ds
		mut.pins = slices.Clone(ds.pins)
		mut.pins[k] = mut.pins[k][:1]
		if _, _, err := DecodeDrainState(mut.AppendWire(nil)); err == nil {
			t.Fatal("decoded without error")
		}
	})
}

// TestDecodeRejectsNonFinite: a net's RSMT length and every tile delta
// feed a resumed drain's weights, so a NaN or infinite one is a wire
// error, which the disk tier counts as corrupt and recomputes.
func TestDecodeRejectsNonFinite(t *testing.T) {
	_, _, _, ds := wireFixture(t, 4, 8, 16)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprintf("rsmt %g", v), func(t *testing.T) {
			mut := *ds
			mut.nets = slices.Clone(ds.nets)
			mut.nets[len(mut.nets)-1].rsmtUM = geom.Micron(v)
			if _, _, err := DecodeDrainState(mut.AppendWire(nil)); err == nil {
				t.Fatal("decoded without error")
			}
		})
		t.Run(fmt.Sprintf("tile delta %g", v), func(t *testing.T) {
			mut := *ds
			mut.tiles = slices.Clone(ds.tiles)
			last := &mut.tiles[len(mut.tiles)-1]
			last.sumS2V = slices.Clone(last.sumS2V)
			last.sumS2V[len(last.sumS2V)-1] = v
			if _, _, err := DecodeDrainState(mut.AppendWire(nil)); err == nil {
				t.Fatal("decoded without error")
			}
		})
	}
}

// TestDecodeRejectsImpossibleValues: a finite value a run cannot write
// is a wire error too. A tile delta is a sum of its members' releases, so
// it lies in [−2m, 0] for m members; a spine distance lies in [0, w+h−2]
// and is 0 at a pin region. Before these checks, a state with every tile
// delta at 1e308 decoded and resumed to other trees.
func TestDecodeRejectsImpossibleValues(t *testing.T) {
	_, _, _, ds := wireFixture(t, 4, 8, 16)
	k := slices.IndexFunc(ds.nets, func(ns netState) bool { return ns.w > 1 && ns.h > 1 })
	if k < 0 {
		t.Fatal("fixture has no net spanning both directions; it drifted")
	}
	last := len(ds.tiles) - 1
	m := float64(len(ds.tiles[last].members))
	tileDelta := func(v float64) func(*DrainState) {
		return func(d *DrainState) {
			d.tiles = slices.Clone(ds.tiles)
			tl := &d.tiles[last]
			tl.sumSH = slices.Clone(tl.sumSH)
			tl.sumSH[len(tl.sumSH)/2] = v
		}
	}
	spine := func(at func(ns *graph) int, v int32) func(*DrainState) {
		return func(d *DrainState) {
			ns := ds.graph(k)
			d.spine = slices.Clone(ds.spine)
			d.spine[ns.vert+at(&ns)] = v
		}
	}
	offPin := func(ns *graph) int { return slices.Index(ns.pinMask, false) }
	onPin := func(ns *graph) int { return slices.Index(ns.pinMask, true) }
	for _, c := range []struct {
		name string
		mut  func(*DrainState)
	}{
		{"tile delta positive", tileDelta(1e-300)},
		{"tile delta below -2m", tileDelta(-2*m - 0.5)},
		{"every tile delta 1e308", func(d *DrainState) {
			d.tiles = slices.Clone(ds.tiles)
			for i := range d.tiles {
				for _, a := range d.tiles[i].arrays() {
					*a = slices.Clone(*a)
					for j := range *a {
						(*a)[j] = 1e308
					}
				}
			}
		}},
		{"spine distance negative", spine(offPin, -1)},
		{"spine distance past w+h-2", spine(offPin, int32(ds.nets[k].w+ds.nets[k].h-1))},
		{"spine distance non-zero at a pin", spine(onPin, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			mut := *ds
			c.mut(&mut)
			if _, _, err := DecodeDrainState(mut.AppendWire(nil)); err == nil {
				t.Fatal("decoded without error")
			}
		})
	}
	t.Run("tile delta at -2m", func(t *testing.T) {
		mut := *ds
		tileDelta(-2 * m)(&mut)
		if _, _, err := DecodeDrainState(mut.AppendWire(nil)); err != nil {
			t.Fatalf("the bound itself is rejected: %v", err)
		}
	})
}

// FuzzDecodeResult: DecodeResult never panics, and whatever it accepts
// re-encodes, in WireSize bytes, to bytes that decode and re-encode to
// themselves.
func FuzzDecodeResult(f *testing.F) {
	for _, seed := range []int64{1, 4} {
		_, _, res, _ := wireFixture(f, seed, 8, 16)
		f.Add(res.AppendWire(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, _, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc := res.AppendWire(nil)
		if n := res.WireSize(); n != len(enc) {
			t.Fatalf("WireSize %d, encoding %d bytes", n, len(enc))
		}
		again, rest, err := DecodeResult(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoding does not decode: %v (%d bytes left)", err, len(rest))
		}
		if !bytes.Equal(again.AppendWire(nil), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// FuzzDecodeDrainState: DecodeDrainState never panics, whatever it
// accepts re-encodes, in WireSize bytes, to a fixed point, and an
// accepted state is safe to resume from — resuming it on the serial
// pool, against the fixture netlist with one net moved to span the grid
// (so every tile re-drains from restored net state), returns or errors
// but never panics.
func FuzzDecodeDrainState(f *testing.F) {
	g, nets, _, ds := wireFixture(f, 4, 8, 16)
	cfg := Config{ShieldAware: true}
	_, chained, _, err := RunShardedResume(context.Background(), g, cfg, mutateNets(4, nets, 8, 8), nil, ShardConfig{}, ds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ds.AppendWire(nil))
	f.Add(chained.AppendWire(nil))
	moved := slices.Clone(nets)
	moved[0] = Net{ID: 0, Pins: []geom.Point{{X: 0, Y: 0}, {X: 7, Y: 7}}, Rate: nets[0].Rate}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, _, err := DecodeDrainState(data)
		if err != nil {
			return
		}
		enc := ds.AppendWire(nil)
		if n := ds.WireSize(); n != len(enc) {
			t.Fatalf("WireSize %d, encoding %d bytes", n, len(enc))
		}
		again, rest, err := DecodeDrainState(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoding does not decode: %v (%d bytes left)", err, len(rest))
		}
		if !bytes.Equal(again.AppendWire(nil), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
		RunShardedResume(context.Background(), g, cfg, moved, nil, ShardConfig{}, ds)
	})
}
