package artifact

// DiskStore is the persistent tier under the in-memory Store: sealed
// artifacts written as one file per content key, so separate processes
// (successive tables runs, the future gsinod daemon) warm-start from each
// other's Phase I work. The layering contract:
//
//   - Correctness never depends on the disk. A load is trusted only after
//     the envelope's checksum, version, fingerprint, and key checks all
//     pass (codec.go); any failure — missing file, torn write, bit rot,
//     version skew, a file renamed under the wrong key — counts Corrupt
//     (or Misses for a clean absence) and reads as a miss, so the worst a
//     damaged cache can do is cost a recompute.
//   - Writes are atomic: encode to a temp file in the same directory,
//     then rename onto the final name. Readers therefore never observe a
//     partially written artifact under a valid key; a crash mid-write
//     leaves a temp file (ignored by loads) or, at worst, a torn rename
//     target that the checksum rejects.
//   - The tier is observational below the determinism contract: a disk
//     hit returns exactly the bytes the original seal fingerprinted, so
//     warm runs are byte-identical to cold runs (core's disk tests and
//     the CI cross-process smoke hold this line).

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/obs"
)

// DiskStats are a DiskStore's cumulative counters. Like the memory tier's
// Stats they are monotone, so windowed per-flow deltas via Sub are valid.
type DiskStats struct {
	Hits        uint64 // loads that decoded and verified a cached artifact
	Misses      uint64 // loads finding no cache file (clean cold miss)
	Corrupt     uint64 // loads the envelope checks degraded to a miss, and files Store.Discard removed
	Writes      uint64 // artifacts written through
	WriteErrors uint64 // failed write-throughs (the run proceeds, just unpersisted)
}

// Sub returns s minus base, for windowed deltas.
func (s DiskStats) Sub(base DiskStats) DiskStats {
	return DiskStats{
		Hits:        s.Hits - base.Hits,
		Misses:      s.Misses - base.Misses,
		Corrupt:     s.Corrupt - base.Corrupt,
		Writes:      s.Writes - base.Writes,
		WriteErrors: s.WriteErrors - base.WriteErrors,
	}
}

// Total sums the load outcomes — nonzero exactly when the tier was consulted.
func (s DiskStats) Total() uint64 { return s.Hits + s.Misses + s.Corrupt + s.Writes + s.WriteErrors }

// DiskStore persists artifacts as <32-hex-key>.art files in one directory.
// It is safe for concurrent use: loads are independent reads, and the
// write path's temp-file + rename means concurrent savers of one key race
// only at the rename, where either winner leaves a complete, identical
// artifact (both encode the same sealed bytes).
type DiskStore struct {
	dir   string
	trace *obs.Tracer
	lane  obs.Lane

	hits, misses, corrupt, writes, writeErrs atomic.Uint64
}

// NewDiskStore opens (creating if needed) the cache directory. The tracer
// may be nil; when enabled, every load records an "artifact-load" span on
// a dedicated lane (concurrent loads may overlap on it — the lane tracks
// the tier, not a goroutine).
func NewDiskStore(dir string, trace *obs.Tracer) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: disk store: %w", err)
	}
	d := &DiskStore{dir: dir, trace: trace}
	if trace.Enabled() {
		d.lane = trace.Lane("artifact disk")
	}
	return d, nil
}

func (d *DiskStore) path(key Key) string { return filepath.Join(d.dir, key.String()+".art") }

// Load returns the verified artifact for key, or nil on any miss — absent
// file (Misses) or a file that fails the envelope's checksum / version /
// fingerprint / key verification (Corrupt). It never returns an error:
// every disk problem degrades to "not cached", by design.
func (d *DiskStore) Load(key Key) *Artifact {
	sp := d.trace.Start(d.lane, "artifact", "artifact-load")
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			d.misses.Add(1)
			sp.Arg("hit", 0).End()
		} else {
			d.corrupt.Add(1)
			sp.Arg("hit", 0).Arg("corrupt", 1).End()
		}
		return nil
	}
	art, err := Decode(data)
	if err != nil || art.key != key {
		d.corrupt.Add(1)
		sp.Arg("hit", 0).Arg("corrupt", 1).Arg("bytes", int64(len(data))).End()
		return nil
	}
	d.hits.Add(1)
	sp.Arg("hit", 1).Arg("bytes", int64(len(data))).End()
	return art
}

// discard removes key's file and counts it Corrupt (Store.Discard). A
// failed removal is not an error: the file's drain section fails again on
// its next use.
func (d *DiskStore) discard(key Key) {
	d.corrupt.Add(1)
	os.Remove(d.path(key))
}

// Save writes the artifact through atomically: temp file in the cache
// directory, then rename onto <key>.art. Failures count WriteErrors and
// return the error; callers on the cache path log-and-continue, because a
// failed persist must never fail the run that computed the artifact.
func (d *DiskStore) Save(art *Artifact) error {
	data, err := Encode(art)
	if err != nil {
		d.writeErrs.Add(1)
		return err
	}
	f, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		d.writeErrs.Add(1)
		return fmt.Errorf("artifact: disk write %s: %w", art.key, err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, d.path(art.key))
	}
	if err != nil {
		os.Remove(tmp)
		d.writeErrs.Add(1)
		return fmt.Errorf("artifact: disk write %s: %w", art.key, err)
	}
	d.writes.Add(1)
	return nil
}

// Stats returns the cumulative counters.
func (d *DiskStore) Stats() DiskStats {
	return DiskStats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Corrupt:     d.corrupt.Load(),
		Writes:      d.writes.Load(),
		WriteErrors: d.writeErrs.Load(),
	}
}
