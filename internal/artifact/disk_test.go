package artifact

import (
	"context"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	if !reflect.DeepEqual(got.res, a.res) || !reflect.DeepEqual(got.drain, a.drain) {
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
	if got.Drain() == nil {
		t.Fatal("Peek dropped the drain state")
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
