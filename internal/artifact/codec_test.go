package artifact

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc64"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/route"
)

// sealedFixture routes the test netlist with a captured drain state and
// seals it — the full payload shape the disk tier persists.
func sealedFixture(t testing.TB) *Artifact {
	t.Helper()
	g := testGrid(t, 8, 8)
	nets := testNets()
	key := KeyFor(g, route.Config{}, route.ShardConfig{}, nets)
	r, err := route.NewRouter(g, route.Config{}, nets)
	if err != nil {
		t.Fatal(err)
	}
	res, ds, err := r.RunShardedState(context.Background(), nil, route.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return Seal(key, res, ds)
}

// TestCodecRoundTrip: Encode/Decode reproduces the artifact exactly —
// key, fingerprint, result, and drain state — and the decoded artifact
// passes the same seal verification a fresh one does.
func TestCodecRoundTrip(t *testing.T) {
	a := sealedFixture(t)
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Key() != a.Key() || b.sum != a.sum {
		t.Fatalf("key/sum drifted: %s/%s vs %s/%s", b.Key(), b.sum, a.Key(), a.sum)
	}
	if !reflect.DeepEqual(b.res, a.res) {
		t.Fatal("decoded result differs")
	}
	ds, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, a.drain) {
		t.Fatal("decoded drain state differs")
	}
	if _, err := b.Result(); err != nil {
		t.Fatalf("decoded artifact failed seal verification: %v", err)
	}
}

// encoded keeps the output of TestEncodeAllocatesOnce's encodes on the
// heap.
var encoded []byte

// TestEncodeAllocatesOnce: Encode sizes the artifact before writing it, so
// its output is one array of exactly its length, and an encode allocates
// as often for 40 nets as for 400 on the same grid. A process's first
// collection starts the collector's workers, which allocates; it runs
// here first, so that an encode that triggers the first collection does
// not count the workers' allocations as its own.
func TestEncodeAllocatesOnce(t *testing.T) {
	runtime.GC()
	g := testGrid(t, 16, 16)
	allocs := make([]float64, 2)
	for k, n := range []int{40, 400} {
		rng := rand.New(rand.NewSource(int64(n)))
		nets := make([]route.Net, n)
		for i := range nets {
			pins := make([]geom.Point, 2+rng.Intn(3))
			for j := range pins {
				pins[j] = geom.Point{X: rng.Intn(16), Y: rng.Intn(16)}
			}
			nets[i] = route.Net{ID: i, Pins: pins, Rate: 0.3}
		}
		r, err := route.NewRouter(g, route.Config{ShieldAware: true}, nets)
		if err != nil {
			t.Fatal(err)
		}
		res, ds, err := r.RunShardedState(context.Background(), nil, route.ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		a := Seal(KeyFor(g, route.Config{ShieldAware: true}, route.ShardConfig{}, nets), res, ds)
		allocs[k] = testing.AllocsPerRun(5, func() {
			if encoded, err = Encode(a); err != nil {
				t.Fatal(err)
			}
		})
		if len(encoded) != cap(encoded) {
			t.Fatalf("%d nets: encoded %d bytes into an array of %d", n, len(encoded), cap(encoded))
		}
	}
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Fatalf("Encode allocated %v times on 40 nets and %v on 400, want the same and at most 2", allocs[0], allocs[1])
	}
}

// TestCodecRejectsCorruption: every truncation and every bit flip of a
// valid file must fail Decode with an error — the checksum (or the magic
// / length checks in front of it) catches all of it before any corrupted
// byte can influence a decoded artifact.
func TestCodecRejectsCorruption(t *testing.T) {
	a := sealedFixture(t)
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := Decode(data[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", i, len(data))
		}
	}
	step := len(data)/512 + 1
	for i := 0; i < len(data); i += step {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

// TestCodecRejectsVersionSkew: a file whose version field is newer —
// with a *valid* checksum, as a real future writer would produce — must
// be rejected as version skew, not parsed.
func TestCodecRejectsVersionSkew(t *testing.T) {
	a := sealedFixture(t)
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	if mut[len(wireMagic)] != wireVersion {
		t.Fatalf("fixture layout drifted: byte %d is %d, want the version", len(wireMagic), mut[len(wireMagic)])
	}
	mut[len(wireMagic)] = wireVersion + 1
	body := mut[:len(mut)-8]
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], crc64.Checksum(body, crcTable))
	_, err = Decode(mut)
	if err == nil {
		t.Fatal("version-skewed file accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("skew rejected for the wrong reason: %v", err)
	}
}

// TestCodecRefusesMutatedEncode: an artifact mutated after sealing must
// not reach disk — Encode re-verifies the fingerprint first.
func TestCodecRefusesMutatedEncode(t *testing.T) {
	a := sealedFixture(t)
	a.res.Trees[0].Edges[0].To.Y++
	if _, err := Encode(a); err == nil {
		t.Fatal("mutated artifact encoded")
	}
}

// TestDecodeAllocatesLinearly: Decode, and Drain on what it accepts (the
// whole decode a resume pays), allocate at most 64 bytes per input byte
// plus 1 MiB, for the fixture encoding, about 512 truncations of it, and
// envelopes with a valid checksum around payloads that claim one tree, or
// one drain-state net, per remaining byte. The second envelope carries
// the fingerprint of the result in front of its drain section, so Decode
// accepts it and the claim reaches the drain decoder. Not parallel:
// TotalAlloc is process-wide.
func TestDecodeAllocatesLinearly(t *testing.T) {
	a := sealedFixture(t)
	res, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]byte
	for i := len(data); i >= 0; i -= len(data)/512 + 1 {
		inputs = append(inputs, data[:i])
	}
	envelope := func(sum Key, payload []byte) []byte {
		buf := binary.AppendUvarint(append([]byte(nil), wireMagic...), wireVersion)
		buf = append(buf, make([]byte, 16)...) // key
		buf = binary.LittleEndian.AppendUint64(buf, sum[0])
		buf = binary.LittleEndian.AppendUint64(buf, sum[1])
		buf = append(buf, payload...)
		return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
	}
	const filler = 1 << 16
	claim := func(head []byte) []byte { return append(binary.AppendUvarint(head, filler), make([]byte, filler)...) }
	// A drain state of no nets and no tiles ends in its net, pin and tile
	// counts, all zero.
	r, err := route.NewRouter(testGrid(t, 8, 8), route.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, empty, err := r.RunShardedState(context.Background(), nil, route.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	header := empty.AppendWire(nil)
	header = header[:len(header)-3]
	crafted := [][]byte{
		envelope(Key{}, claim(nil)),
		envelope(Fingerprint(res), claim(append(res.AppendWire(nil), header...))),
	}
	decode := func(data []byte) error {
		art, err := Decode(data)
		if err != nil {
			return err
		}
		_, err = art.Drain()
		return err
	}
	for _, data := range crafted {
		if err := decode(data); err == nil || !strings.Contains(err.Error(), "count") {
			t.Fatalf("crafted envelope rejected for the wrong reason: %v", err)
		}
	}
	for _, data := range append(inputs, crafted...) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode(data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+1<<20; n > limit {
			t.Errorf("%d input bytes allocated %d bytes, limit %d", len(data), n, limit)
		}
	}
}

// FuzzDecode: Decode never panics, whatever it accepts re-encodes to
// exactly the input bytes, and its drain section then either decodes
// (Drain) to a state that, sealed with the decoded result, re-encodes to
// the input again, or fails Drain with an error. Seeds are the encodings
// of the fixture and of an empty netlist's route.
func FuzzDecode(f *testing.F) {
	g := testGrid(f, 8, 8)
	r, err := route.NewRouter(g, route.Config{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	res, ds, err := r.RunShardedState(context.Background(), nil, route.ShardConfig{})
	if err != nil {
		f.Fatal(err)
	}
	empty := Seal(KeyFor(g, route.Config{}, route.ShardConfig{}, nil), res, ds)
	for _, art := range []*Artifact{sealedFixture(f), empty} {
		data, err := Encode(art)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Encode(art)
		if err != nil {
			t.Fatalf("decoded artifact does not encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("re-encoding differs from the accepted input")
		}
		ds, err := art.Drain()
		if err != nil {
			return
		}
		res, err := art.Result()
		if err != nil {
			t.Fatalf("decoded artifact failed seal verification: %v", err)
		}
		if enc, err = Encode(Seal(art.Key(), res, ds)); err != nil {
			t.Fatalf("decoded drain state does not encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("re-encoding the decoded drain state differs from the accepted input")
		}
	})
}
