package keff

import (
	"math"
	"sync/atomic"
)

// The table covers every geometry a layout's shield table can produce:
// separations up to the pair cutoff and return distances up to the
// background return, in both orientations (2 · 48 · 12⁴ slots, 15 MiB).
const denseSlots = 2 * pairCutoff * backgroundReturn * backgroundReturn * backgroundReturn * backgroundReturn

// PairCache is a concurrency-safe, read-mostly memo of pair-coupling
// evaluations. Region instances across a full chip share a small set of
// relative geometries (dense unshielded runs, wall-bounded stretches, the
// post-shield patterns Phase III converges to), so a single cache shared by
// every engine worker eliminates most PairCoupling arithmetic after warm-up.
//
// The coupling K_ij depends only on track-pitch distances — the separation
// D = tj − ti and each wire's distance to its left/right return conductors —
// so the cache is one flat table of atomic slots indexed by those five
// distances: a hit costs an index computation and one atomic load, far
// below the coupling formula itself. A partner beyond the pair cutoff lies
// outside the table and is computed directly and only counted. Slots store
// the exact computed float64, so cached results are bit-identical to
// direct ones; a racy double-compute stores the same bits.
//
// Cached values are a pure function of the relative geometry AND the
// model's Technology: a PairCache must not be shared between models over
// different technologies.
type PairCache struct {
	// dense[slot] is 0 when empty, else Float64bits(k) with the sign bit
	// forced on as the presence flag (couplings are never negative).
	dense []atomic.Uint64

	hits     atomic.Uint64
	misses   atomic.Uint64
	entries  atomic.Uint64 // filled slots
	overflow atomic.Uint64 // evaluations outside the table
}

// NewPairCacheFor returns an empty cache covering m's geometry: every
// evaluation within the pair cutoff lands in the table.
func NewPairCacheFor(m *Model) *PairCache {
	// Two halves: positive and negative separations. Orientations cache
	// separately (the formula is not bit-symmetric under operand swap), and
	// negative-D lookups come from single-pair callers like the solver's
	// sidePull.
	return &PairCache{dense: make([]atomic.Uint64, denseSlots)}
}

// slot maps a relative geometry to its table index, or -1 when the
// separation lies beyond the pair cutoff. Return distances come from a
// shield table, which bounds each to [1, backgroundReturn].
func (c *PairCache) slot(d, il, ir, jl, jr int) int {
	neg := d < 0
	if neg {
		d = -d
	}
	if d < 1 || d > pairCutoff {
		return -1
	}
	const s = backgroundReturn
	slot := ((((jr-1)*s+(jl-1))*s+(ir-1))*s+(il-1))*pairCutoff + (d - 1)
	if neg {
		slot += denseSlots / 2
	}
	return slot
}

const presenceBit = 1 << 63

// lookStats batches the cache counters so the hot path pays one atomic add
// per counter per solver call instead of one per pair.
type lookStats struct {
	hits, misses, fills, overflow uint64
}

func (c *PairCache) flush(ls *lookStats) {
	if ls.hits > 0 {
		c.hits.Add(ls.hits)
	}
	if ls.misses > 0 {
		c.misses.Add(ls.misses)
	}
	if ls.fills > 0 {
		c.entries.Add(ls.fills)
	}
	if ls.overflow > 0 {
		c.overflow.Add(ls.overflow)
	}
	*ls = lookStats{}
}

// pair is pairCouplingAt behind the table: a hit returns the stored bits, a
// miss computes and stores them, and an out-of-bounds geometry is computed
// directly.
func (c *PairCache) pair(m *Model, ls *lookStats, ti, tj int, si, sj [2]int) float64 {
	slot := c.slot(tj-ti, ti-si[0], si[1]-ti, tj-sj[0], sj[1]-tj)
	if slot < 0 {
		ls.overflow++
		return m.pairCouplingAt(ti, tj, si, sj)
	}
	if b := c.dense[slot].Load(); b != 0 {
		ls.hits++
		return math.Float64frombits(b &^ presenceBit)
	}
	ls.misses++
	v := m.pairCouplingAt(ti, tj, si, sj)
	// Count the fill only for the writer that found the slot empty, so
	// racing fills of one geometry count it once.
	if c.dense[slot].Swap(math.Float64bits(v)|presenceBit) == 0 {
		ls.fills++
	}
	return v
}

// Stats returns the cumulative lookup counters. Out-of-bounds evaluations
// count as neither.
func (c *PairCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// CacheInfo is a point-in-time introspection snapshot of a PairCache —
// table occupancy and coverage, and the evaluations it could not serve —
// the unified metrics snapshot (internal/obs) reports per flow.
type CacheInfo struct {
	Dense              int // geometries resident in the table
	Overflow           int // evaluations outside the table, computed directly
	SepBound, RetBound int // table coverage: largest |D| and return distance
}

// Info gathers a CacheInfo snapshot in O(1): occupancy is counted as slots
// fill, not scanned.
func (c *PairCache) Info() CacheInfo {
	return CacheInfo{
		Dense:    int(c.entries.Load()),
		Overflow: int(c.overflow.Load()),
		SepBound: pairCutoff,
		RetBound: backgroundReturn,
	}
}

// Clone returns an independent copy of the model: same configuration,
// snapshot of the memoized partial inductances. A Model is not safe for
// concurrent use (mutualAt grows the memo lazily); concurrent solvers give
// each worker its own clone and share a PairCache instead.
func (m *Model) Clone() *Model {
	return &Model{Tech: m.Tech, mu: append([]float64(nil), m.mu...)}
}

// AllTotalsCached is AllTotals backed by a shared cache; a nil cache is
// equivalent to AllTotals. Both are thin wrappers over Coupler.AllTotalsInto.
func (m *Model) AllTotalsCached(c *PairCache, l Layout, sensitive func(a, b int) bool) []float64 {
	tr := l.Tracks
	out := make([]float64, len(tr))
	cp := Coupler{m: m, c: c}
	cp.AllTotalsInto(tr, m.shieldTable(tr), sensitive, out)
	cp.Flush()
	return out
}
