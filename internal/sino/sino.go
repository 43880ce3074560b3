// Package sino solves the Simultaneous shield Insertion and Net Ordering
// problem inside one routing region (He–Lepak, ISPD'00 — the paper's
// Phase II building block): order the net segments assigned to a region's
// track stack and insert shield tracks so that
//
//  1. no two sensitive nets sit on adjacent tracks (capacitive freedom), and
//  2. every segment's total inductive coupling K_i stays below its bound
//     Kth_i,
//
// while using as few tracks as possible. The problem is NP-hard; this
// package provides a fast greedy constructor with local polish (used at
// full-chip scale), a simulated-annealing solver for small instances and
// coefficient fitting, and the net-ordering-only solver (NO) used by the
// ID+NO baseline.
package sino

import (
	"fmt"
	"math"

	"repro/internal/keff"
)

// Shield marks a track occupied by a shield in a Solution.
const Shield = -1

// Seg is one net segment routed through the region.
type Seg struct {
	Net  int     // global net identifier (input to the sensitivity relation)
	Kth  float64 // inductive coupling bound for this segment
	Rate float64 // the net's sensitivity rate S_i, used by estimation
}

// Instance is a SINO problem: the segments sharing one region's track stack
// in one routing direction.
type Instance struct {
	Segs      []Seg
	Sensitive func(a, b int) bool // by net identifiers; must be symmetric
	Model     *keff.Model

	// Cache is ignored: couplings come from Model's tables. It remains
	// for the benchmark harness, which still sets it (keff.PairCache).
	Cache *keff.PairCache

	// Rel optionally snapshots Sensitive over Segs (NewRelation), for a
	// caller that solves the same segments many times: the solvers read
	// it in place of consulting Sensitive for every pair, and never write
	// it, so one relation may be shared by any number of instances and
	// goroutines. It must describe Segs' nets in Segs' order; nil
	// snapshots a fresh relation at Bind.
	Rel *keff.Relation
}

// NewRelation snapshots sensitive (by net identifiers) over segs: the
// relation by segment index that Instance.Rel holds. It depends only on
// the segments' nets, so it stays valid while their bounds change.
func NewRelation(segs []Seg, sensitive func(a, b int) bool) *keff.Relation {
	r := keff.NewRelation(len(segs))
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			if sensitive(segs[i].Net, segs[j].Net) {
				r.Set(i, j)
			}
		}
	}
	return r
}

// relation returns the instance's snapshot: Rel, or a fresh one.
func (in *Instance) relation() *keff.Relation {
	if in.Rel != nil {
		return in.Rel
	}
	return NewRelation(in.Segs, in.Sensitive)
}

// Validate reports the first structural problem with the instance.
func (in *Instance) Validate() error {
	if in.Sensitive == nil {
		return fmt.Errorf("sino: instance has no sensitivity relation")
	}
	if in.Model == nil {
		return fmt.Errorf("sino: instance has no coupling model")
	}
	if in.Rel != nil && in.Rel.Len() != len(in.Segs) {
		return fmt.Errorf("sino: sensitivity relation covers %d segments, instance has %d", in.Rel.Len(), len(in.Segs))
	}
	for i, s := range in.Segs {
		// Both checks are written so that NaN fails them.
		if !(s.Kth > 0) || math.IsInf(s.Kth, 1) {
			return fmt.Errorf("sino: segment %d (net %d) has Kth %g, want finite and positive", i, s.Net, s.Kth)
		}
		if !(s.Rate >= 0 && s.Rate <= 1) {
			return fmt.Errorf("sino: segment %d (net %d) has sensitivity rate %g outside [0,1]", i, s.Net, s.Rate)
		}
	}
	return nil
}

// sensitiveSegs reports whether segments a and b (by segment index) are
// sensitive to each other, asking Sensitive: for callers that test too
// few pairs to pay for a snapshot.
func (in *Instance) sensitiveSegs(a, b int) bool {
	return in.Sensitive(in.Segs[a].Net, in.Segs[b].Net)
}

// Solution is a track assignment: Tracks[t] holds a segment index or Shield.
// Every segment index appears exactly once in a valid solution.
type Solution struct {
	Tracks []int
}

// NumShields counts shield tracks.
func (s *Solution) NumShields() int {
	n := 0
	for _, t := range s.Tracks {
		if t == Shield {
			n++
		}
	}
	return n
}

// NumTracks returns the total track count (area) of the solution.
func (s *Solution) NumTracks() int { return len(s.Tracks) }

// Layout converts the solution into the keff layout for coupling
// computation. Track nets are segment indices, not global net ids, the
// indices an instance's relation is taken over (NewRelation).
func (in *Instance) Layout(s *Solution) keff.Layout {
	l := keff.Layout{Tracks: make([]keff.Track, len(s.Tracks))}
	for t, seg := range s.Tracks {
		if seg == Shield {
			l.Tracks[t] = keff.ShieldOf()
		} else {
			l.Tracks[t] = keff.SignalOf(seg)
		}
	}
	return l
}

// TotalK returns each segment's total inductive coupling K_i under the
// solution, indexed by segment.
func (in *Instance) TotalK(s *Solution) []float64 { return in.totalK(s, in.relation()) }

// totalK is TotalK under the instance's relation rel.
func (in *Instance) totalK(s *Solution, rel *keff.Relation) []float64 {
	byTrack := in.Model.AllTotals(in.Layout(s), rel)
	out := make([]float64, len(in.Segs))
	for t, seg := range s.Tracks {
		if seg != Shield {
			out[seg] = byTrack[t]
		}
	}
	return out
}

// Check is the verification report for a solution.
type Check struct {
	// Structural errors: missing/duplicated segments. A solution with
	// structural errors is not a SINO solution at all.
	Structural error

	// CapPairs lists adjacent sensitive track pairs (capacitive violations).
	CapPairs [][2]int

	// K holds each segment's total coupling; Over lists segments with
	// K > Kth.
	K    []float64
	Over []int

	// WorstOver is max over segments of (K−Kth)/Kth, 0 when feasible.
	WorstOver float64
	// WorstSeg is the segment achieving WorstOver, -1 when feasible.
	WorstSeg int
}

// Feasible reports whether the solution satisfies all SINO constraints.
func (c *Check) Feasible() bool {
	return c.Structural == nil && len(c.CapPairs) == 0 && len(c.Over) == 0
}

// verify checks s against the instance's constraints from scratch under
// the instance's relation rel, the brute-force oracle the incremental
// evaluator is held to. A nil rel stands for the instance's own
// (Instance.Rel, or a snapshot taken once s is known to be structurally
// valid).
func (in *Instance) verify(s *Solution, rel *keff.Relation) *Check {
	c := &Check{WorstSeg: -1}
	seen := make([]int, len(in.Segs))
	for _, t := range s.Tracks {
		if t == Shield {
			continue
		}
		if t < 0 || t >= len(in.Segs) {
			c.Structural = fmt.Errorf("sino: track holds unknown segment %d", t)
			return c
		}
		seen[t]++
	}
	for i, n := range seen {
		if n != 1 {
			c.Structural = fmt.Errorf("sino: segment %d appears %d times", i, n)
			return c
		}
	}
	if rel == nil {
		rel = in.relation()
	}
	// Capacitive adjacency.
	prev := -1 // previous signal track position; reset across shields
	for t, seg := range s.Tracks {
		if seg == Shield {
			prev = -1
			continue
		}
		if prev >= 0 && rel.Has(s.Tracks[prev], seg) {
			c.CapPairs = append(c.CapPairs, [2]int{prev, t})
		}
		prev = t
	}
	// Inductive bounds.
	c.K = in.totalK(s, rel)
	for i, k := range c.K {
		kth := in.Segs[i].Kth
		if k > kth {
			c.Over = append(c.Over, i)
			if over := (k - kth) / kth; over > c.WorstOver {
				c.WorstOver = over
				c.WorstSeg = i
			}
		}
	}
	return c
}
