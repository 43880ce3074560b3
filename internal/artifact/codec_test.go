package artifact

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc64"
	"reflect"
	"runtime"
	"strings"
	"testing"

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
	if !reflect.DeepEqual(b.drain, a.drain) {
		t.Fatal("decoded drain state differs")
	}
	if _, err := b.Result(); err != nil {
		t.Fatalf("decoded artifact failed seal verification: %v", err)
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

// TestDecodeAllocatesLinearly: Decode allocates at most 64 bytes per
// input byte plus 1 MiB, for the fixture encoding, about 512
// truncations of it, and envelopes with a valid checksum around
// payloads that claim one tree, or one drain-state net, per remaining
// byte. Not parallel: TotalAlloc is process-wide.
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
	envelope := func(payload []byte) []byte {
		buf := binary.AppendUvarint(append([]byte(nil), wireMagic...), wireVersion)
		buf = append(append(buf, make([]byte, 32)...), payload...) // key, fingerprint
		return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
	}
	const filler = 1 << 16
	claim := func(head []byte) []byte { return append(binary.AppendUvarint(head, filler), make([]byte, filler)...) }
	// A drain state of no nets and no tiles ends in their two zero counts.
	r, err := route.NewRouter(testGrid(t, 8, 8), route.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, empty, err := r.RunShardedState(context.Background(), nil, route.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	header := empty.AppendWire(nil)
	header = header[:len(header)-2]
	crafted := [][]byte{
		envelope(claim(nil)),
		envelope(claim(append(res.AppendWire(nil), header...))),
	}
	for _, data := range crafted {
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "count") {
			t.Fatalf("crafted envelope rejected for the wrong reason: %v", err)
		}
	}
	for _, data := range append(inputs, crafted...) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Decode(data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+1<<20; n > limit {
			t.Errorf("%d input bytes allocated %d bytes, limit %d", len(data), n, limit)
		}
	}
}

// FuzzDecode: Decode never panics, and whatever it accepts re-encodes to
// exactly the input bytes. Seeds are the encodings of the fixture and of
// an empty netlist's route.
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
	})
}
