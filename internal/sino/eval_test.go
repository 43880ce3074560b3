package sino

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/keff"
	"repro/internal/tech"
)

// randomSolution builds a structurally valid solution: a random permutation
// of all segments with shields sprinkled at random positions.
func randomSolution(n int, shieldFrac float64, rng *rand.Rand) *Solution {
	tracks := rng.Perm(n)
	s := &Solution{Tracks: tracks}
	extra := int(shieldFrac * float64(n))
	for i := 0; i <= extra; i++ {
		at := rng.Intn(len(s.Tracks) + 1)
		s.Tracks = append(s.Tracks, 0)
		copy(s.Tracks[at+1:], s.Tracks[at:])
		s.Tracks[at] = Shield
	}
	return s
}

// cloneSolution deep-copies s.
func cloneSolution(s *Solution) *Solution {
	return &Solution{Tracks: append([]int(nil), s.Tracks...)}
}

// assertEvalMatchesVerify compares every maintained quantity against the
// brute-force oracle, requiring exact bits on the coupling totals.
func assertEvalMatchesVerify(t *testing.T, in *Instance, e *Eval, ctx string) {
	t.Helper()
	cur := e.Solution()
	chk := in.Verify(cur)
	if chk.Structural != nil {
		t.Fatalf("%s: evaluator produced structurally invalid solution: %v", ctx, chk.Structural)
	}
	for i := range in.Segs {
		if math.Float64bits(e.k[i]) != math.Float64bits(chk.K[i]) {
			t.Fatalf("%s: segment %d total K mismatch: evaluator %v (bits %x), Verify %v (bits %x)",
				ctx, i, e.k[i], math.Float64bits(e.k[i]), chk.K[i], math.Float64bits(chk.K[i]))
		}
	}
	if e.capPairs != len(chk.CapPairs) {
		t.Fatalf("%s: cap-pair count mismatch: evaluator %d, Verify %d", ctx, e.capPairs, len(chk.CapPairs))
	}
	if e.Feasible() != chk.Feasible() {
		t.Fatalf("%s: feasibility mismatch: evaluator %v, Verify %v", ctx, e.Feasible(), chk.Feasible())
	}
	if e.nShields != cur.NumShields() || len(e.tracks) != cur.NumTracks() {
		t.Fatalf("%s: track accounting mismatch: %d/%d tracks, %d/%d shields",
			ctx, len(e.tracks), cur.NumTracks(), e.nShields, cur.NumShields())
	}
	if got := e.Check(); !reflect.DeepEqual(got, chk) {
		t.Fatalf("%s: Check mismatch:\nevaluator %+v\nVerify    %+v", ctx, got, chk)
	}
}

// TestEvalMatchesVerifyOnEditScripts replays random edit scripts — shield
// insertions and removals, adjacent and arbitrary swaps, relocations, and
// mark/rollback cycles — through the incremental evaluator, asserting
// after every operation that per-segment K totals (exact bits), the
// cap-pair count, and feasibility match a fresh brute-force Verify of the
// same solution.
func TestEvalMatchesVerifyOnEditScripts(t *testing.T) {
	// The window spans the small layouts whole; the 260-segment instances
	// are wider than the ±61-track window, so they exercise the truly
	// windowed per-track recompute path.
	sizes := []int{1, 2, 3, 5, 8, 13, 20, 28, 34, 40, 260}
	rates := []float64{0.1, 0.3, 0.5, 0.8}
	for _, n := range sizes {
		for _, rate := range rates {
			seed := int64(n)*100 + int64(rate*10)
			runEditScript(t, testInstance(n, rate, 0.55, seed), n, rate, seed)
		}
	}
}

// runEditScript drives one randomized edit script through an evaluator,
// checking it against the oracle after every operation.
func runEditScript(t *testing.T, in *Instance, n int, rate float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 31))
	e := NewEval()
	e.Bind(in)
	if err := e.Load(randomSolution(n, rate, rng)); err != nil {
		t.Fatalf("n=%d rate=%g: load: %v", n, rate, err)
	}
	assertEvalMatchesVerify(t, in, e, "after load")

	steps := 50
	if testing.Short() {
		steps = 15
	}
	for step := 0; step < steps; step++ {
		nt := len(e.tracks)
		switch rng.Intn(6) {
		case 0:
			e.InsertShield(rng.Intn(nt + 1))
		case 1:
			if e.nShields == 0 {
				continue
			}
			var shields []int
			for p, v := range e.tracks {
				if v == Shield {
					shields = append(shields, p)
				}
			}
			e.removeAt(shields[rng.Intn(len(shields))])
		case 2:
			if nt < 2 {
				continue
			}
			at := rng.Intn(nt - 1)
			e.swapAny(at, at+1)
		case 3:
			if nt < 2 {
				continue
			}
			e.swapAny(rng.Intn(nt), rng.Intn(nt))
		case 4: // relocate
			if nt < 2 {
				continue
			}
			v := e.removeAt(rng.Intn(nt))
			e.insertAt(rng.Intn(len(e.tracks)+1), v)
		case 5: // probe and roll back, like a polish trial
			before := e.Solution()
			e.mark()
			e.InsertShield(rng.Intn(nt + 1))
			if len(e.tracks) >= 2 {
				at := rng.Intn(len(e.tracks) - 1)
				e.swapAny(at, at+1)
			}
			e.rollback()
			if !reflect.DeepEqual(e.Solution(), before) {
				t.Fatalf("n=%d rate=%g step %d: rollback did not restore tracks", n, rate, step)
			}
		}
		assertEvalMatchesVerify(t, in, e, "after step")
	}
}

// TestSolveWithPooledEvaluatorMatchesFresh solves a stream of different
// instances through one pooled evaluator (the engine-worker pattern) and
// requires byte-identical solutions and reports versus one-shot solves —
// the guard against cross-instance contamination of the reused buffers.
func TestSolveWithPooledEvaluatorMatchesFresh(t *testing.T) {
	model := keff.NewModel(tech.Default())
	ev := NewEval()
	for seed := int64(0); seed < 8; seed++ {
		n := 4 + int(seed)*4
		in := testInstance(n, 0.4, 0.6, seed)
		in.Model = model // shared model: the coupler persists across solves
		pooledSol, pooledChk := SolveWith(ev, in)
		freshSol, freshChk := Solve(in)
		if !reflect.DeepEqual(pooledSol, freshSol) {
			t.Fatalf("seed %d: pooled solution differs:\npooled %v\nfresh  %v", seed, pooledSol.Tracks, freshSol.Tracks)
		}
		if !reflect.DeepEqual(pooledChk, freshChk) {
			t.Fatalf("seed %d: pooled check differs", seed)
		}

		rs := cloneSolution(pooledSol)
		fs := cloneSolution(freshSol)
		tight := &Instance{Segs: append([]Seg(nil), in.Segs...), Sensitive: in.Sensitive, Model: model}
		for i := range tight.Segs {
			tight.Segs[i].Kth *= 0.7
		}
		rChk := RepairWith(ev, tight, rs, pooledChk.K)
		fChk := Repair(tight, fs)
		if !reflect.DeepEqual(rs, fs) || !reflect.DeepEqual(rChk, fChk) {
			t.Fatalf("seed %d: pooled repair differs", seed)
		}
	}
}

// TestAnnealPooledMatchesFresh pins the annealing trajectory: the
// evaluator-based walk with a pooled evaluator must reproduce the one-shot
// result exactly (same seed, same moves, same acceptances).
func TestAnnealPooledMatchesFresh(t *testing.T) {
	ev := NewEval()
	for seed := int64(1); seed < 4; seed++ {
		in := testInstance(8, 0.5, 0.6, seed)
		opts := AnnealOptions{Seed: seed, Iterations: 1500}
		ps, pc := AnnealWith(ev, in, opts)
		fs, fc := Anneal(in, opts)
		if !reflect.DeepEqual(ps, fs) || !reflect.DeepEqual(pc, fc) {
			t.Fatalf("seed %d: pooled anneal differs:\npooled %v\nfresh  %v", seed, ps.Tracks, fs.Tracks)
		}
	}
}

// boxedInstance is two mutually sensitive segments with an unreachable
// bound: coupling across any number of shields never drops to zero, so
// repair cannot succeed and must recognize futility.
func boxedInstance() *Instance {
	return &Instance{
		Segs: []Seg{
			{Net: 0, Kth: 1e-9, Rate: 1},
			{Net: 1, Kth: 1e-9, Rate: 1},
		},
		Sensitive: func(a, b int) bool { return a != b },
		Model:     keff.NewModel(tech.Default()),
	}
}

// TestRepairStopsWhenBoxedIn is the regression test for the duplicated
// boxed-in check: with shields already on both sides of every violator, no
// insertion can reduce its coupling, and repairK must return immediately
// instead of burning the shield budget on duplicates.
func TestRepairStopsWhenBoxedIn(t *testing.T) {
	in := boxedInstance()
	s := &Solution{Tracks: []int{Shield, 0, Shield, 1, Shield}}
	chk := Repair(in, s)
	if got := s.NumTracks(); got != 5 {
		t.Fatalf("boxed-in repair changed the solution: %d tracks (want 5): %v", got, s.Tracks)
	}
	if chk.Feasible() || len(chk.Over) != 2 {
		t.Fatalf("boxed-in repair must report both segments over bound, got %+v", chk)
	}
}

// TestRepairSkipsUselessSideInsertion checks the single-shield half of the
// restructured logic: when the pull-preferred side already has a shield
// directly beside the violator, the insertion flips to the other side
// rather than stacking a redundant shield against the existing one.
func TestRepairSkipsUselessSideInsertion(t *testing.T) {
	in := boxedInstance()
	s := &Solution{Tracks: []int{0, Shield, 1}}
	Repair(in, s)
	for t2 := 0; t2+1 < len(s.Tracks); t2++ {
		if s.Tracks[t2] == Shield && s.Tracks[t2+1] == Shield {
			t.Fatalf("repair stacked adjacent shields: %v", s.Tracks)
		}
	}
}

// TestRepairRejectsStructurallyInvalid documents RepairWith's contract for
// broken inputs: no repair, oracle report returned.
func TestRepairRejectsStructurallyInvalid(t *testing.T) {
	in := testInstance(3, 0.5, 0.7, 1)
	s := &Solution{Tracks: []int{0, 1, 1}} // segment 2 missing, 1 duplicated
	chk := Repair(in, s)
	if chk.Structural == nil {
		t.Fatal("structurally invalid solution must be reported")
	}
	if len(s.Tracks) != 3 {
		t.Fatalf("structurally invalid solution must not be modified: %v", s.Tracks)
	}
}

// TestRandomSensitivityMatchesMapReference re-implements the historical
// map-backed draw and checks the bitset relation reproduces it pair for
// pair under the same rng stream — the draw order (row-major over i < j)
// is what keeps fitted coefficients unchanged.
func TestRandomSensitivityMatchesMapReference(t *testing.T) {
	for _, n := range []int{1, 2, 9, 24} {
		for _, rate := range []float64{0.1, 0.5, 0.8} {
			rates := make([]float64, n)
			for i := range rates {
				rates[i] = rate
			}
			seed := int64(n*100) + int64(rate*10)
			got := randomSensitivity(n, rates, rand.New(rand.NewSource(seed)))

			rng := rand.New(rand.NewSource(seed))
			ref := make(map[[2]int]bool)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < (rates[i]+rates[j])/2 {
						ref[[2]int{i, j}] = true
					}
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a, b := i, j
					if a > b {
						a, b = b, a
					}
					if got(i, j) != ref[[2]int{a, b}] {
						t.Fatalf("n=%d rate=%g: pair (%d,%d): bitset %v, map %v", n, rate, i, j, got(i, j), ref[[2]int{a, b}])
					}
				}
			}
		}
	}
}

// TestEvalLoadReportsStructuralErrors mirrors Verify's structural cases.
func TestEvalLoadReportsStructuralErrors(t *testing.T) {
	in := testInstance(3, 0.5, 1, 1)
	e := NewEval()
	e.Bind(in)
	for _, c := range []struct {
		name   string
		tracks []int
	}{
		{"missing segment", []int{0, 1}},
		{"duplicate segment", []int{0, 1, 1, 2}},
		{"unknown segment", []int{0, 1, 2, 7}},
	} {
		if err := e.Load(&Solution{Tracks: c.tracks}); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if err := e.Load(&Solution{Tracks: []int{2, Shield, 0, 1}}); err != nil {
		t.Errorf("valid solution rejected: %v", err)
	}
}
