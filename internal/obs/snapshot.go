package obs

import (
	"fmt"
	"strings"
	"time"
)

// Snapshot is the unified metrics view of one flow run: the paper metrics
// the tables print, the per-phase wall-clock split, and every throughput
// counter the layers below already keep — engine activity, Phase I shard
// decomposition, Phase III wave decomposition, evaluator-pool traffic,
// pair-cache occupancy, and (under the batch scheduler) warm-start
// carryover. It deliberately mirrors those layers' stat structs with plain
// fields instead of importing them: obs is imported *by* engine, route,
// core, and sched, so it must stay a leaf. core.Outcome.Snapshot and
// sched.Result.Snapshot do the copying.
//
// The two formatters, Summary and Detail, are the single source of the
// human-readable stats text: cmd/gsino -v and cmd/tables' stderr progress
// both render through them. Timings appear only here — never in the
// deterministic tables or CSV.
type Snapshot struct {
	Design string
	Flow   string
	Rate   float64

	TotalNets  int
	Violations int
	Shields    int
	SegTracks  int

	Runtime time.Duration
	Phases  PhaseTimes

	Workers  int
	Engine   EngineStats
	Eval     EvalStats
	Route    RouteStats
	Refine   RefineStats
	Cache    CacheStats
	Artifact ArtifactStats
	ECO      ECOStats

	Congestion CongestionStats

	// Batch context, set by sched.Result.Snapshot; Cells == 0 means the
	// run was standalone.
	Cell, Cells  int
	InnerWorkers int
	Warm         WarmStats
}

// PhaseTimes is the wall-clock split of one flow across the paper's
// phases: Route is Phase I (budgeting + shield-aware routing), Order is
// Phase II (instance construction + SINO in every region), Refine is
// Phase III (two-pass local refinement; zero for the baseline flows).
// Durations are observational only and never enter report bytes.
type PhaseTimes struct {
	Route, Order, Refine time.Duration
}

// Total sums the phase durations.
func (p PhaseTimes) Total() time.Duration { return p.Route + p.Order + p.Refine }

// EngineStats mirrors engine.Stats (see that type for semantics).
type EngineStats struct {
	Jobs, Tasks, Waves, Errors uint64
	Tracks, Shields            uint64
	CacheHits, CacheMiss       uint64
}

// HitRate returns the coupling-cache hit rate in [0, 1].
func (e EngineStats) HitRate() float64 {
	if e.CacheHits+e.CacheMiss == 0 {
		return 0
	}
	return float64(e.CacheHits) / float64(e.CacheHits+e.CacheMiss)
}

// EvalStats mirrors sino.EvalStats: the pooled incremental evaluators'
// activity during the flow.
type EvalStats struct {
	Binds, Loads, Edits, Rollbacks uint64
}

// RouteStats mirrors route.RunStats: Phase I's shard decomposition,
// seeding fan-out, and boundary-reconciliation traffic.
type RouteStats struct {
	Shards, LargestShard, Reconciled, ReconcileRounds int

	// SeedChunks counts the chunks per-net graph construction fanned out
	// over; ReconcileComponents/LargestComponent describe the
	// bounding-box-overlap components rip-up reconciliation drained
	// concurrently.
	SeedChunks          int
	ReconcileComponents int
	LargestComponent    int
}

// RefineStats mirrors core's Phase III counters: pass-1 wave structure and
// pass-2 speculation traffic, plus the two legacy totals.
type RefineStats struct {
	Waves, MaxWave, MaxColors   int
	Resolves, Unfixable         int
	Relaxed, Accepted, Reverted int

	// Incremental-barrier bookkeeping: per-net LSK refreshes the violation
	// tracker ran, and conflict-graph vertices dropped/added between waves
	// instead of rebuilding the graph.
	Refreshed                int
	GraphDropped, GraphAdded int
}

// CacheStats mirrors keff.CacheInfo: pair-cache table occupancy and
// coverage, and the evaluations that fell outside the table, at snapshot
// time. Under the batch scheduler the cache is shared per technology, so
// these describe the shared structure, not one cell's private traffic.
type CacheStats struct {
	Dense, Overflow    int
	SepBound, RetBound int
}

// ArtifactStats mirrors artifact.Stats: the routing-artifact store's
// activity during the flow, including the persistent disk tier's when one
// is attached (-artifact-dir). Under a shared store the attribution of
// hits to flows is schedule-dependent, so these are reporting-only.
type ArtifactStats struct {
	Hits, Misses, Evictions uint64

	// Disk tier: verified loads, cold misses, files rejected by the
	// corruption checks (and recomputed), atomic write-throughs.
	DiskHits, DiskMisses, DiskCorrupt uint64
	DiskWrites, DiskWriteErrors       uint64
}

// DiskTotal sums the disk-tier counters — nonzero exactly when a
// persistent tier was consulted.
func (a ArtifactStats) DiskTotal() uint64 {
	return a.DiskHits + a.DiskMisses + a.DiskCorrupt + a.DiskWrites + a.DiskWriteErrors
}

// ECOStats mirrors route.ECOStats: the invalidation accounting of an
// incremental (ECO) re-solve — zero when Phase I routed from scratch.
type ECOStats struct {
	EditedNets   int
	TilesInvalid int
	TilesReused  int
	NetsRerouted int
	NetsReused   int
}

// WarmStats is the shared cache's lookup counters at cell start — the
// carryover a batch cell inherits from the cells before it.
type WarmStats struct {
	Hits, Misses uint64
}

// HitRate returns the warm-start hit rate in [0, 1].
func (w WarmStats) HitRate() float64 {
	if w.Hits+w.Misses == 0 {
		return 0
	}
	return float64(w.Hits) / float64(w.Hits+w.Misses)
}

// CongestionStats mirrors grid.CongestionStats for the final usage.
type CongestionStats struct {
	AvgHDensity, AvgVDensity float64
	MaxH, MaxV               float64
	OverflowedH, OverflowedV int
}

// Summary renders the one-line digest batch progress streams print per
// cell: outcome headline, phase split, and — when batch context is set —
// the cell position, worker share, and warm-start carryover.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ran %s %s @%.0f%% in %s (%d violations, %d route shards, %d solves, %d refine waves; route %s / order %s / refine %s)",
		s.Design, s.Flow, s.Rate*100, s.Runtime.Round(time.Millisecond),
		s.Violations, s.Route.Shards, s.Engine.Jobs, s.Refine.Waves,
		s.Phases.Route.Round(time.Millisecond), s.Phases.Order.Round(time.Millisecond), s.Phases.Refine.Round(time.Millisecond))
	if s.Cells > 0 {
		fmt.Fprintf(&b, " [cell %d/%d, %d workers, warm-start hit %.0f%%]",
			s.Cell, s.Cells, s.InnerWorkers, s.Warm.HitRate()*100)
	}
	return b.String()
}

// Detail renders the multi-line stats block behind gsino -v, each line
// prefixed (the CLI indents under its table row). Phase III lines appear
// only when refinement ran.
func (s *Snapshot) Detail(prefix string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%sphases: route %s, order %s, refine %s (total %s)\n",
		prefix, s.Phases.Route.Round(time.Millisecond), s.Phases.Order.Round(time.Millisecond),
		s.Phases.Refine.Round(time.Millisecond), s.Runtime.Round(time.Millisecond))
	c := s.Congestion
	fmt.Fprintf(&b, "%sdensity avg H/V %.2f/%.2f, max %.2f/%.2f, overflowed regions %d/%d, segs %d\n",
		prefix, c.AvgHDensity, c.AvgVDensity, c.MaxH, c.MaxV, c.OverflowedH, c.OverflowedV, s.SegTracks)
	e := s.Engine
	fmt.Fprintf(&b, "%sengine: %d workers, %d instances solved (%d tracks), %d tasks in %d waves, coupling cache %.1f%% hit\n",
		prefix, s.Workers, e.Jobs, e.Tracks, e.Tasks, e.Waves, e.HitRate()*100)
	v := s.Eval
	fmt.Fprintf(&b, "%seval pool: %d binds, %d loads, %d incremental edits, %d rollbacks\n",
		prefix, v.Binds, v.Loads, v.Edits, v.Rollbacks)
	k := s.Cache
	fmt.Fprintf(&b, "%spair cache: %d geometries (sep <= %d, ret <= %d), %d evaluations outside the table\n",
		prefix, k.Dense, k.SepBound, k.RetBound, k.Overflow)
	r := s.Route
	fmt.Fprintf(&b, "%sphase I: %d routing shards (largest %d nets), seeding in %d chunks, %d nets reconciled in %d rounds (%d components, largest %d)\n",
		prefix, r.Shards, r.LargestShard, r.SeedChunks,
		r.Reconciled, r.ReconcileRounds, r.ReconcileComponents, r.LargestComponent)
	if a := s.Artifact; a.Hits+a.Misses > 0 {
		fmt.Fprintf(&b, "%sartifacts: %d hits, %d misses, %d evictions\n",
			prefix, a.Hits, a.Misses, a.Evictions)
	}
	if a := s.Artifact; a.DiskTotal() > 0 {
		fmt.Fprintf(&b, "%sartifact disk: %d hits, %d misses, %d corrupt, %d writes (%d write errors)\n",
			prefix, a.DiskHits, a.DiskMisses, a.DiskCorrupt, a.DiskWrites, a.DiskWriteErrors)
	}
	if eco := s.ECO; eco.EditedNets > 0 || eco.TilesInvalid+eco.TilesReused > 0 {
		fmt.Fprintf(&b, "%seco: %d nets edited, %d/%d tiles invalidated, %d nets re-routed (%d reused)\n",
			prefix, eco.EditedNets, eco.TilesInvalid, eco.TilesInvalid+eco.TilesReused, eco.NetsRerouted, eco.NetsReused)
	}
	if p3 := s.Refine; p3.Waves > 0 || p3.Resolves > 0 || p3.Relaxed > 0 {
		fmt.Fprintf(&b, "%sphase III: %d repair waves (largest %d nets, %d colors max), %d re-solves; pass 2: %d relaxed, %d accepted, %d reverted\n",
			prefix, p3.Waves, p3.MaxWave, p3.MaxColors, p3.Resolves, p3.Relaxed, p3.Accepted, p3.Reverted)
		fmt.Fprintf(&b, "%sbarriers: %d net refreshes, conflict graph -%d/+%d vertices between waves\n",
			prefix, p3.Refreshed, p3.GraphDropped, p3.GraphAdded)
	}
	return b.String()
}
