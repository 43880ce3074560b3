package artifact

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/route"
)

// artFiles lists the non-temp cache files in dir.
func artFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".art") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestDiskStoreSaveLoad: Save writes <key>.art atomically (no temp files
// left behind), Load verifies and returns the artifact, absent keys are
// clean misses, and the counters track each outcome.
func TestDiskStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := sealedFixture(t)
	if err := d.Save(a); err != nil {
		t.Fatal(err)
	}
	files := artFiles(t, dir)
	if len(files) != 1 || files[0] != a.Key().String()+".art" {
		t.Fatalf("cache files = %v, want [%s.art]", files, a.Key())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}

	got := d.Load(a.Key())
	if got == nil {
		t.Fatal("saved artifact did not load")
	}
	gotDS, err := got.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.res, a.res) || !reflect.DeepEqual(gotDS, a.drain) {
		t.Fatal("loaded artifact differs from saved")
	}
	other := KeyFor(testGrid(t, 8, 8), route.Config{ShieldAware: true}, route.ShardConfig{}, testNets())
	if d.Load(other) != nil {
		t.Fatal("absent key loaded something")
	}
	st := d.Stats()
	want := DiskStats{Hits: 1, Misses: 1, Writes: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestDiskStoreCorruptionMatrix: every way a cache file can go bad —
// truncation, bit flip, version skew, garbage magic, or a valid file
// sitting under the wrong key's name — loads as nil with Corrupt counted,
// never a panic or a wrong artifact.
func TestDiskStoreCorruptionMatrix(t *testing.T) {
	a := sealedFixture(t)
	valid, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	versionSkewed := append([]byte(nil), valid...)
	versionSkewed[len(wireMagic)] = wireVersion + 1
	binary.LittleEndian.PutUint64(versionSkewed[len(versionSkewed)-8:],
		crc64.Checksum(versionSkewed[:len(versionSkewed)-8], crcTable))
	bitFlipped := append([]byte(nil), valid...)
	bitFlipped[len(bitFlipped)/2] ^= 0x01
	badMagic := append([]byte(nil), valid...)
	copy(badMagic, "GARBAGE!")

	cases := map[string][]byte{
		"empty":     {},
		"truncated": valid[:len(valid)/3],
		"bitflip":   bitFlipped,
		"version":   versionSkewed,
		"magic":     badMagic,
		"wrongkey":  valid, // written under a different key's filename below
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := NewDiskStore(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			key := a.Key()
			if name == "wrongkey" {
				key = KeyFor(testGrid(t, 8, 8), route.Config{ShieldAware: true}, route.ShardConfig{}, testNets())
			}
			if err := os.WriteFile(filepath.Join(dir, key.String()+".art"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := d.Load(key); got != nil {
				t.Fatalf("corrupt file (%s) loaded an artifact", name)
			}
			if st := d.Stats(); st.Corrupt != 1 || st.Hits != 0 {
				t.Fatalf("stats = %+v, want exactly 1 corrupt", st)
			}
		})
	}
}

// TestStoreDiskFallthrough is the two-tier contract end to end: a cold
// store computes once and writes through; a second store (fresh memory,
// same directory — a new process) serves the key from disk without
// computing; a corrupted file degrades to a recompute that heals the
// cache for a fourth store.
func TestStoreDiskFallthrough(t *testing.T) {
	dir := t.TempDir()
	a := sealedFixture(t)
	key := a.Key()
	ctx := context.Background()
	compute := func(context.Context) (*Artifact, error) { return a, nil }
	noCompute := func(context.Context) (*Artifact, error) {
		t.Error("compute ran against a warm directory")
		return a, nil
	}
	newStore := func() *Store {
		d, err := NewDiskStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return NewStore(0).WithDisk(d)
	}

	// Process 1: cold. Miss both tiers, compute, write through.
	s1 := newStore()
	got, served, err := s1.Do(ctx, key, compute)
	if err != nil || served || got != a {
		t.Fatalf("cold Do: art=%p served=%v err=%v", got, served, err)
	}
	st := s1.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Disk.Misses != 1 || st.Disk.Writes != 1 {
		t.Fatalf("cold stats = %+v", st)
	}

	// Process 2: warm. Served from disk, no compute, counts as a hit.
	s2 := newStore()
	got2, served2, err := s2.Do(ctx, key, noCompute)
	if err != nil || !served2 || got2 == nil {
		t.Fatalf("warm Do: served=%v err=%v", served2, err)
	}
	if _, err := got2.Result(); err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if st2.Hits != 1 || st2.Misses != 0 || st2.Disk.Hits != 1 {
		t.Fatalf("warm stats = %+v", st2)
	}
	// Second lookup in the same process hits memory, not disk again.
	if _, _, err := s2.Do(ctx, key, noCompute); err != nil {
		t.Fatal(err)
	}
	if st2 = s2.Stats(); st2.Disk.Hits != 1 || st2.Hits != 2 {
		t.Fatalf("memory-tier stats after re-lookup = %+v", st2)
	}

	// Process 3: the cache file is corrupted in place. The load is
	// rejected, compute runs, and the write-through heals the file.
	path := filepath.Join(dir, key.String()+".art")
	if err := os.WriteFile(path, []byte("short and wrong"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := newStore()
	got3, served3, err := s3.Do(ctx, key, compute)
	if err != nil || served3 || got3 != a {
		t.Fatalf("corrupt-dir Do: served=%v err=%v", served3, err)
	}
	st3 := s3.Stats()
	if st3.Misses != 1 || st3.Disk.Corrupt != 1 || st3.Disk.Writes != 1 {
		t.Fatalf("corrupt-dir stats = %+v", st3)
	}

	// Process 4: healed.
	s4 := newStore()
	if _, served4, err := s4.Do(ctx, key, noCompute); err != nil || !served4 {
		t.Fatalf("healed Do: served=%v err=%v", served4, err)
	}
}

// TestStorePeekDiskFallthrough: Peek reaches the disk tier — the ECO
// path's cross-process base-artifact probe — and publishes the loaded
// artifact into memory, drain state intact.
func TestStorePeekDiskFallthrough(t *testing.T) {
	dir := t.TempDir()
	a := sealedFixture(t)
	d1, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Save(a); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0).WithDisk(d2)
	got := s.Peek(a.Key())
	if got == nil {
		t.Fatal("Peek missed a warm directory")
	}
	if ds, err := got.Drain(); err != nil || ds == nil {
		t.Fatalf("Peek dropped the drain state: %v", err)
	}
	if s.Len() != 1 {
		t.Fatal("Peek did not publish the disk load into memory")
	}
	if s.Peek(a.Key()) != got {
		t.Fatal("second Peek re-loaded instead of hitting memory")
	}
	if st := s.Stats(); st.Disk.Hits != 1 {
		t.Fatalf("disk stats = %+v, want exactly 1 hit", st.Disk)
	}
	// Memory lookups stay uncounted on Peek, per its contract.
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek distorted memory stats: %+v", st)
	}
}

// TestDiskStoreSaveRejectsMutation: a mutated artifact never reaches disk
// and the failure is counted, not silent.
func TestDiskStoreSaveRejectsMutation(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := sealedFixture(t)
	a.res.Stats.Reconciled++
	if err := d.Save(a); err == nil {
		t.Fatal("mutated artifact saved")
	}
	if st := d.Stats(); st.WriteErrors != 1 || st.Writes != 0 {
		t.Fatalf("stats = %+v, want 1 write error", st)
	}
	if files := artFiles(t, dir); len(files) != 0 {
		t.Fatalf("cache files appeared: %v", files)
	}
}

// TestDiskHitDecodesNoDrainState: a disk hit decodes the Result and keeps
// the drain section as bytes. Decode allocates what the Result decoder
// does plus the artifact itself, and the artifact the store serves still
// holds no drain state; the first Drain call decodes it, and concurrent
// callers all receive that one state.
func TestDiskHitDecodesNoDrainState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := sealedFixture(t)
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	head := len(wireMagic) + len(binary.AppendUvarint(nil, wireVersion)) + 32
	result := testing.AllocsPerRun(20, func() {
		if _, _, err := route.DecodeResult(data[head:]); err != nil {
			t.Fatal(err)
		}
	})
	whole := testing.AllocsPerRun(20, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if whole != result+1 {
		t.Errorf("Decode: %v allocations, want the Result decoder's %v and the artifact", whole, result)
	}

	dir := t.TempDir()
	d, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(a); err != nil {
		t.Fatal(err)
	}
	s := NewStore(0).WithDisk(d)
	got, served, err := s.Do(context.Background(), a.Key(), func(context.Context) (*Artifact, error) {
		return nil, errors.New("warm directory routed")
	})
	if err != nil || !served {
		t.Fatalf("disk hit: served %v, err %v", served, err)
	}
	if got.drain != nil || got.drainWire == nil {
		t.Fatal("a disk hit decoded the drain state")
	}
	states := make([]*route.DrainState, 4)
	var wg sync.WaitGroup
	for i := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := got.Drain()
			if err != nil {
				t.Error(err)
			}
			states[i] = ds
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(states[0], a.drain) {
		t.Fatal("decoded drain state differs from the sealed one")
	}
	for _, ds := range states[1:] {
		if ds != states[0] {
			t.Fatal("concurrent Drain calls decoded more than once")
		}
	}
}

// TestDrainSectionMalformed: an envelope whose checksum, version and
// fingerprint hold but whose drain section does not decode — cut to half
// its length, or followed by a byte the state does not account for —
// loads, serves its Result, and re-encodes to its own bytes; only Drain
// fails, with the same error on every call.
func TestDrainSectionMalformed(t *testing.T) {
	a := sealedFixture(t)
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-8]
	for name, section := range map[string][]byte{
		"truncated": body[:len(body)-a.drain.WireSize()/2],
		"trailing":  append(body[:len(body):len(body)], 0),
	} {
		bad := append([]byte(nil), section...)
		bad = binary.LittleEndian.AppendUint64(bad, crc64.Checksum(bad, crcTable))
		got, err := Decode(bad)
		if err != nil {
			t.Fatalf("%s: Decode refused an envelope whose Result is intact: %v", name, err)
		}
		if res, err := got.Result(); err != nil || !reflect.DeepEqual(res, a.res) {
			t.Fatalf("%s: Result of a malformed drain section's envelope: %v", name, err)
		}
		if enc, err := Encode(got); err != nil || !bytes.Equal(enc, bad) {
			t.Fatalf("%s: re-encoding the malformed envelope: %v", name, err)
		}
		ds, err := got.Drain()
		if err == nil || ds != nil {
			t.Fatalf("%s: Drain decoded a malformed drain section", name)
		}
		if _, again := got.Drain(); again != err {
			t.Fatalf("%s: second Drain call: %v, want the first call's %v", name, again, err)
		}
	}
}

// TestStoreDiscard: Discard drops a key from the memory tier and removes
// its file, counting it Corrupt, so the next Do for the key computes and
// writes the file back.
func TestStoreDiscard(t *testing.T) {
	a := sealedFixture(t)
	dir := t.TempDir()
	d, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(a); err != nil {
		t.Fatal(err)
	}
	s := NewStore(0).WithDisk(d)
	if s.Peek(a.Key()) == nil || s.Len() != 1 {
		t.Fatal("Peek did not load the saved artifact into memory")
	}
	s.Discard(a.Key())
	if s.Len() != 0 {
		t.Error("Discard left the artifact in memory")
	}
	if _, err := os.Stat(d.path(a.Key())); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Discard left the file on disk: %v", err)
	}
	before := s.Stats()
	if before.Disk.Corrupt != 1 {
		t.Errorf("Discard counted %d corrupt, want 1", before.Disk.Corrupt)
	}
	computed := false
	if _, served, err := s.Do(context.Background(), a.Key(), func(context.Context) (*Artifact, error) {
		computed = true
		return a, nil
	}); err != nil || served || !computed {
		t.Fatalf("Do after Discard: served %v, computed %v, err %v", served, computed, err)
	}
	if st := s.Stats().Sub(before); st.Disk.Writes != 1 || st.Disk.Misses != 1 {
		t.Errorf("Do after Discard: disk stats %+v, want one miss and one write", st.Disk)
	}
	NewStore(0).Discard(a.Key()) // a memory-only store, the key absent: no effect
}
