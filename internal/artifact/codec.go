package artifact

// Versioned wire format for persisted artifacts — the self-describing
// envelope DiskStore reads and writes. Layout:
//
//	offset  size  field
//	0       8     magic "GSINOART"
//	8       var   wire version (uvarint; readers reject any they don't speak)
//	..      16    problem key (2 × uint64 LE)
//	..      16    sealed fingerprint (2 × uint64 LE)
//	..      var   route.Result payload (route wire encoding)
//	..      var   route.DrainState payload
//	end-8   8     CRC-64/ECMA over every preceding byte (uint64 LE)
//
// Decode trusts nothing: magic, checksum, and version gate the parse (in
// that order — a truncated or bit-flipped file fails the checksum before
// any payload byte is interpreted, and a version-skewed file is rejected
// even though its checksum is valid), the payload decoders bounds-check
// every read and allocate O(input) (internal/route/wire.go), and the
// decoded Result must hash to the stored fingerprint before the artifact
// is resealed. Any failure is an error the caller treats as a cache miss;
// none is a panic or a silently wrong artifact.
//
// Version discipline: wireVersion bumps whenever the envelope, the route
// payload encoding, or the Fingerprint field set changes shape. Old files
// then read as counted corrupt misses and are overwritten by fresh seals —
// a disk cache needs no migration path, only safe rejection.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"

	"repro/internal/route"
)

// wireVersion is the on-disk format generation.
const wireVersion = 4

// wireMagic opens every artifact file; a wrong magic fails fast with a
// clearer error than a checksum mismatch.
var wireMagic = []byte("GSINOART")

var crcTable = crc64.MakeTable(crc64.ECMA)

// wireMinLen is the smallest structurally possible envelope: magic,
// one-byte version, key, fingerprint, checksum (the minimum payloads are
// larger, but this bound is only a fast reject).
const wireMinLen = len("GSINOART") + 1 + 16 + 16 + 8

// Encode renders the artifact in the versioned wire format. It verifies
// the seal first — a mutated artifact must never reach disk, where it
// would outlive the process that corrupted it.
func Encode(a *Artifact) ([]byte, error) {
	if a == nil {
		return nil, fmt.Errorf("artifact: encoding nil artifact")
	}
	if got := Fingerprint(a.res); got != a.sum {
		return nil, fmt.Errorf("artifact %s: refusing to encode mutated result (fingerprint %s, sealed %s)", a.key, got, a.sum)
	}
	buf := append([]byte(nil), wireMagic...)
	buf = binary.AppendUvarint(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, a.key[0])
	buf = binary.LittleEndian.AppendUint64(buf, a.key[1])
	buf = binary.LittleEndian.AppendUint64(buf, a.sum[0])
	buf = binary.LittleEndian.AppendUint64(buf, a.sum[1])
	buf = a.res.AppendWire(buf)
	buf = a.drain.AppendWire(buf)
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable)), nil
}

// Decode parses a wire-format artifact and reseals it. The returned
// artifact is exactly as trustworthy as a freshly sealed one: the
// checksum proves the bytes arrived intact, the version proves this code
// wrote them, and the fingerprint re-hash proves the decoded Result is
// the one that was sealed. The caller must still compare Key() against
// the key it asked for — the filename is not part of the checksum.
func Decode(data []byte) (*Artifact, error) {
	if len(data) < wireMinLen {
		return nil, fmt.Errorf("artifact: wire data truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(wireMagic)], wireMagic) {
		return nil, fmt.Errorf("artifact: bad wire magic %q", data[:len(wireMagic)])
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	if got, want := crc64.Checksum(body, crcTable), binary.LittleEndian.Uint64(trailer); got != want {
		return nil, fmt.Errorf("artifact: wire checksum mismatch (%016x, want %016x)", got, want)
	}
	rest := body[len(wireMagic):]
	v, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("artifact: truncated wire version")
	}
	rest = rest[n:]
	if v != wireVersion {
		return nil, fmt.Errorf("artifact: wire version %d, want %d", v, wireVersion)
	}
	if len(rest) < 32 {
		return nil, fmt.Errorf("artifact: wire header truncated")
	}
	var key, sum Key
	key[0] = binary.LittleEndian.Uint64(rest[0:])
	key[1] = binary.LittleEndian.Uint64(rest[8:])
	sum[0] = binary.LittleEndian.Uint64(rest[16:])
	sum[1] = binary.LittleEndian.Uint64(rest[24:])
	rest = rest[32:]

	res, rest, err := route.DecodeResult(rest)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", key, err)
	}
	drain, rest, err := route.DecodeDrainState(rest)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", key, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("artifact %s: %d trailing bytes", key, len(rest))
	}
	if got := Fingerprint(res); got != sum {
		return nil, fmt.Errorf("artifact %s: decoded result fingerprint %s, sealed %s", key, got, sum)
	}
	return &Artifact{key: key, res: res, drain: drain, sum: sum}, nil
}
