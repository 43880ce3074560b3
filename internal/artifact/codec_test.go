package artifact

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc64"
	"reflect"
	"strings"
	"testing"

	"repro/internal/grid"
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
	if b.Drain() == nil {
		t.Fatal("drain state lost in round trip")
	}

	// A drainless artifact round-trips too (ECO-less producers).
	res, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	data2, err := Encode(Seal(a.Key(), res, nil))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Decode(data2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Drain() != nil {
		t.Fatal("nil drain became non-nil")
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
	a.res.Usage.H[0]++
	if _, err := Encode(a); err == nil {
		t.Fatal("mutated artifact encoded")
	}
}

// TestFingerprintMismatchedUsageLengths: Fingerprint must hash H and V
// independently rather than indexing V under H's range — a malformed
// (e.g. corrupt-decoded) result with len(V) < len(H) must produce a
// fingerprint mismatch, never an out-of-range panic. The mismatched
// result also survives the full codec path: it encodes, decodes, and
// reseals consistently, because the lengths themselves are hashed.
func TestFingerprintMismatchedUsageLengths(t *testing.T) {
	short := &route.Result{Usage: &grid.Usage{H: []float64{1, 2, 3}, V: []float64{4}}}
	long := &route.Result{Usage: &grid.Usage{H: []float64{1}, V: []float64{4, 5, 6}}}
	if Fingerprint(short) == Fingerprint(long) {
		t.Fatal("mismatched usage shapes collided")
	}
	// Same multiset of values, different H/V split: lengths must separate them.
	ab := &route.Result{Usage: &grid.Usage{H: []float64{1, 2}, V: []float64{3}}}
	ba := &route.Result{Usage: &grid.Usage{H: []float64{1}, V: []float64{2, 3}}}
	if Fingerprint(ab) == Fingerprint(ba) {
		t.Fatal("H/V boundary not hashed")
	}

	// A sealed-then-truncated artifact fails verification loudly (this
	// panicked before the fix).
	a := sealedFixture(t)
	a.res.Usage.V = a.res.Usage.V[:len(a.res.Usage.V)-1]
	if _, err := a.Result(); err == nil {
		t.Fatal("usage-length mutation went undetected")
	}

	// And the degenerate mismatched shape round-trips through the codec:
	// decode re-verifies against a fingerprint that covered the lengths.
	key := KeyFor(testGrid(t, 8, 8), route.Config{}, route.ShardConfig{}, testNets())
	data, err := Encode(Seal(key, short, nil))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.res.Usage, short.Usage) {
		t.Fatal("mismatched-length usage did not round-trip")
	}
}

// FuzzDecode: Decode never panics, and whatever it accepts re-encodes to
// exactly the input bytes. Seeds are the fixture's encodings with and
// without a drain state.
func FuzzDecode(f *testing.F) {
	a := sealedFixture(f)
	res, err := a.Result()
	if err != nil {
		f.Fatal(err)
	}
	for _, art := range []*Artifact{a, Seal(a.Key(), res, nil)} {
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
