package sino

import (
	"math"
	"math/rand"
)

// AnnealOptions tunes the simulated-annealing solver.
type AnnealOptions struct {
	Seed       int64
	Iterations int // move attempts; 0 selects 400·n
}

// The annealing schedule: the walk starts at temperature annealT0 and
// cools geometrically by annealCooling once per epoch.
const (
	annealT0      = 4.0
	annealCooling = 0.95
)

// Anneal refines a SINO solution by simulated annealing over the joint
// ordering/shielding space: swap tracks, relocate tracks, insert or remove
// shields. It starts from the greedy solution and never returns anything
// worse. Moves apply to the incremental evaluator and roll back when
// rejected, so a move costs a windowed coupling update plus an O(n) cost
// scan rather than the full O(n²) verification it previously ran; the
// trajectory (move sequence, acceptance decisions, result) is unchanged.
// Production routing uses Solve; annealing serves coefficient fitting and
// optimality cross-checks on small instances.
func Anneal(in *Instance, opts AnnealOptions) (*Solution, *Check) {
	return AnnealWith(NewEval(), in, opts)
}

// AnnealWith is Anneal on a caller-supplied evaluator (see SolveWith).
func AnnealWith(e *Eval, in *Instance, opts AnnealOptions) (*Solution, *Check) {
	if err := in.Validate(); err != nil {
		panic(err.Error())
	}
	n := len(in.Segs)
	if opts.Iterations <= 0 {
		opts.Iterations = 400 * max(n, 1)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	best, bestChk := SolveWith(e, in)
	if n == 0 {
		return best, bestChk
	}
	// The evaluator holds the greedy solution; it now tracks the walk's
	// current state.
	bestCost := e.annealCost()
	curCost := bestCost

	temp := annealT0
	epoch := max(opts.Iterations/30, 1)
	for it := 0; it < opts.Iterations; it++ {
		if !e.mutate(rng) {
			continue
		}
		cost := e.annealCost()
		if cost <= curCost || rng.Float64() < math.Exp((curCost-cost)/temp) {
			curCost = cost
			if cost < bestCost {
				best, bestCost = e.Solution(), cost
			}
		} else {
			e.rollback()
		}
		if (it+1)%epoch == 0 {
			temp *= annealCooling
		}
	}
	return best, in.Verify(best)
}

// annealCost scores the evaluator's current solution: area plus heavy
// penalties for constraint violations, so feasible small solutions always
// win. Terms accumulate exactly as the Verify-based scorer did (cap-pair
// penalty first, then over-bound segments in ascending order), keeping
// costs bit-identical.
func (e *Eval) annealCost() float64 {
	cost := float64(len(e.tracks))
	cost += 50 * float64(e.capPairs)
	for i := range e.in.Segs {
		kth := e.in.Segs[i].Kth
		if e.k[i] > kth {
			cost += 50 * (e.k[i] - kth) / kth
		}
	}
	return cost
}

// mutate applies one random move to the evaluator, or reports false when
// the chosen move does not apply (leaving the state untouched). Callers
// judge the move and roll back rejected ones; the random draws exactly
// mirror the historical copy-based mutator, preserving annealing
// trajectories.
func (e *Eval) mutate(rng *rand.Rand) bool {
	n := len(e.tracks)
	switch rng.Intn(4) {
	case 0: // swap two tracks
		if n < 2 {
			return false
		}
		a, b := rng.Intn(n), rng.Intn(n)
		e.mark()
		e.swapAny(a, b)
	case 1: // relocate a track
		if n < 2 {
			return false
		}
		from := rng.Intn(n)
		e.mark()
		v := e.removeAt(from)
		to := rng.Intn(len(e.tracks) + 1)
		e.insertAt(to, v)
	case 2: // insert a shield
		at := rng.Intn(n + 1)
		e.mark()
		e.InsertShield(at)
	case 3: // remove a random shield
		if e.nShields == 0 {
			return false
		}
		pick := rng.Intn(e.nShields)
		at := -1
		for t, v := range e.tracks {
			if v == Shield {
				if pick == 0 {
					at = t
					break
				}
				pick--
			}
		}
		e.mark()
		e.removeAt(at)
	}
	return true
}
