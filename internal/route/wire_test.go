package route

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
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

// TestResultWireRoundTrip: encode/decode reproduces the Result exactly.
func TestResultWireRoundTrip(t *testing.T) {
	_, _, res, _ := wireFixture(t, 1, 16, 80)
	buf := res.AppendWire(nil)
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
// (reflect.DeepEqual reaches every unexported field).
func TestDrainWireRoundTrip(t *testing.T) {
	_, _, _, ds := wireFixture(t, 2, 16, 80)
	buf := ds.AppendWire(nil)
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
// of one element per remaining byte, and a net whose pins span a
// 2^20 x 2^20 grid with no arrays behind them, whose pin mask alone
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
	claim := func(head []byte) []byte { return append(wireU(head, filler), make([]byte, filler)...) }
	// A state with no nets and no tiles ends in their two zero counts.
	header := (&DrainState{cfg: ds.cfg, grid: ds.grid}).AppendWire(nil)
	header = header[: len(header)-2 : len(header)-2]
	corner := geom.Point{X: maxWireDim - 1, Y: maxWireDim - 1}
	huge := ds.grid
	huge.Cols, huge.Rows = maxWireDim, maxWireDim
	bigGrid := &DrainState{cfg: ds.cfg, grid: huge,
		snaps: []netSnap{{ns: netState{rate: 0.3}, pins: []geom.Point{{}, corner}}}}
	inputs = append(inputs,
		input{"tree count", DecodeResultBytes, claim(nil), true},
		input{"net count", DecodeDrainBytes, claim(header), true},
		input{"tile count", DecodeDrainBytes, claim(wireU(header, 0)), true},
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

// TestDecodeRejectsPinMismatch: a net snapshot's arrays must be sized for
// the bounding box of its pin list. A resume restores the snapshot and
// re-drains the net over that box: arrays sized for a wider one would
// send the connectivity search outside the pin mask.
func TestDecodeRejectsPinMismatch(t *testing.T) {
	_, _, _, ds := wireFixture(t, 4, 8, 16)
	k := slices.IndexFunc(ds.snaps, func(s netSnap) bool {
		return geom.RectFromPoints(s.pins[:1]) != s.ns.bbox
	})
	if k < 0 {
		t.Fatal("fixture has no multi-region net; it drifted")
	}
	if _, _, err := DecodeDrainState(ds.AppendWire(nil)); err != nil {
		t.Fatalf("unmutated fixture: %v", err)
	}
	t.Run("bbox wider than pins", func(t *testing.T) {
		mut := *ds
		mut.snaps = slices.Clone(ds.snaps)
		mut.snaps[k].pins = mut.snaps[k].pins[:1]
		if _, _, err := DecodeDrainState(mut.AppendWire(nil)); err == nil {
			t.Fatal("decoded without error")
		}
	})
}

// FuzzDecodeResult: DecodeResult never panics, and whatever it accepts
// re-encodes to bytes that decode and re-encode to themselves.
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
// accepts re-encodes to a fixed point, and an accepted state is safe to
// resume from — resuming it on the serial pool, against the fixture
// netlist with one net moved to span the grid (so every tile re-drains
// from restored net state), returns or errors but never panics.
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
