package sino

import (
	"fmt"
	"math/rand"

	"repro/internal/keff"
	"repro/internal/mna"
	"repro/internal/tech"
)

// ShieldCoeffs are the coefficients of the paper's Formula (3), which
// predicts the number of shields a min-area SINO solution needs from the
// number of net segments in a region and their sensitivity rates:
//
//	Nss = a1·ΣSi² + a2·(1/Nns)·ΣSi² + a3·ΣSi + a4·(1/Nns)·ΣSi + a5·Nns + a6
//
// The paper's coefficient values live in its companion technical report; the
// defaults here are regenerated the same way the authors produced theirs —
// least-squares fit against min-area SINO solutions over a large range of
// Nns and Si (see FitCoeffs and cmd/fitshield).
type ShieldCoeffs struct {
	A1, A2, A3, A4, A5, A6 float64
}

// DefaultShieldCoeffs returns the embedded fitted coefficients for the
// default technology and the budget-typical Kth range. Regenerate with:
//
//	go run ./cmd/fitshield
func DefaultShieldCoeffs() ShieldCoeffs {
	return ShieldCoeffs{
		A1: -0.51642, A2: 6.0243, A3: 0.66728, A4: -3.891, A5: 0.037444, A6: -0.15031,
	}
}

// Estimate evaluates Formula (3). nns may be fractional (expected number of
// segments during probabilistic routing); sumS and sumS2 are ΣSi and ΣSi².
// The result is clamped to [0, ∞).
func (c ShieldCoeffs) Estimate(nns, sumS, sumS2 float64) float64 {
	if nns <= 0 {
		return 0
	}
	v := c.A1*sumS2 + c.A2*sumS2/nns + c.A3*sumS + c.A4*sumS/nns + c.A5*nns + c.A6
	if v < 0 {
		return 0
	}
	return v
}

// EstimateUniform evaluates Formula (3) when every segment has the same
// sensitivity rate — the paper's experimental setting.
func (c ShieldCoeffs) EstimateUniform(nns, rate float64) float64 {
	return c.Estimate(nns, nns*rate, nns*rate*rate)
}

// FitSample is one (configuration statistics → expected shields)
// observation: the mean min-area shield count over several sensitivity
// realizations of the same (Nns, S) configuration. Formula (3) predicts the
// expectation — individual realizations scatter around it.
type FitSample struct {
	Nns   int
	SumS  float64
	SumS2 float64
	Nss   float64
}

// FitConfig controls sample generation for coefficient fitting.
type FitConfig struct {
	Seed      int64
	Reps      int     // sensitivity realizations averaged per configuration; 0 selects 8
	Kth       float64 // the fixed per-segment bound ("given the fixed Kth", §3.1); 0 selects 0.7
	UseAnneal bool    // solve instances with Anneal instead of Solve (slower, tighter)
}

// fitMaxSegs is the largest region population the fit sweeps.
const fitMaxSegs = 28

// GenerateFitSamples sweeps a grid of region configurations — segment count
// Nns and uniform sensitivity rate S — solves each realization for minimum
// area under the default technology, and returns per-configuration
// averages.
func GenerateFitSamples(cfg FitConfig) []FitSample {
	if cfg.Reps <= 0 {
		cfg.Reps = 8
	}
	if cfg.Kth <= 0 {
		cfg.Kth = 0.7
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := keff.NewModel(tech.Default())
	// One evaluator solves every realization: all instances share the model,
	// so its buffers stay warm across the whole sweep.
	ev := NewEval()

	var out []FitSample
	for n := 2; n <= fitMaxSegs; n += 2 {
		for _, s := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
			rates := make([]float64, n)
			for i := range rates {
				rates[i] = s
			}
			total, solved := 0.0, 0
			for rep := 0; rep < cfg.Reps; rep++ {
				sens := randomSensitivity(n, rates, rng)
				segs := make([]Seg, n)
				for i := range segs {
					segs[i] = Seg{Net: i, Kth: cfg.Kth, Rate: s}
				}
				in := &Instance{Segs: segs, Sensitive: sens, Model: model}
				var sol *Solution
				var chk *Check
				if cfg.UseAnneal {
					sol, chk = AnnealWith(ev, in, AnnealOptions{Seed: rng.Int63()})
				} else {
					sol, chk = SolveWith(ev, in)
				}
				if !chk.Feasible() {
					continue // bound tighter than dense shielding can reach
				}
				total += float64(sol.NumShields())
				solved++
			}
			if solved == 0 {
				continue
			}
			out = append(out, FitSample{
				Nns:   n,
				SumS:  float64(n) * s,
				SumS2: float64(n) * s * s,
				Nss:   total / float64(solved),
			})
		}
	}
	return out
}

// randomSensitivity draws a symmetric pairwise relation where nets i and j
// conflict with probability (Si+Sj)/2, stored in a keff.Relation (this
// relation sits in the fit-sample hot loop, where a map lookup per
// consultation dominated). The draw order — row-major over i < j — is
// load-bearing: it fixes the rng stream, so fitted coefficients are
// unchanged from the map-backed implementation.
func randomSensitivity(n int, rates []float64, rng *rand.Rand) func(a, b int) bool {
	rel := keff.NewRelation(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < (rates[i]+rates[j])/2 {
				rel.Set(i, j)
			}
		}
	}
	return rel.Has
}

// FitCoeffs least-squares fits Formula (3) to the samples by solving the
// 6×6 normal equations.
func FitCoeffs(samples []FitSample) (ShieldCoeffs, error) {
	if len(samples) < 12 {
		return ShieldCoeffs{}, fmt.Errorf("sino: need at least 12 samples to fit 6 coefficients, got %d", len(samples))
	}
	features := func(s FitSample) [6]float64 {
		n := float64(s.Nns)
		return [6]float64{s.SumS2, s.SumS2 / n, s.SumS, s.SumS / n, n, 1}
	}
	ata := mna.NewDense(6)
	atb := make([]float64, 6)
	for _, s := range samples {
		x := features(s)
		y := s.Nss
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				ata.Add(i, j, x[i]*x[j])
			}
			atb[i] += x[i] * y
		}
	}
	lu, err := ata.Factor()
	if err != nil {
		return ShieldCoeffs{}, fmt.Errorf("sino: degenerate fit system: %w", err)
	}
	sol := make([]float64, 6)
	lu.Solve(sol, atb)
	return ShieldCoeffs{A1: sol[0], A2: sol[1], A3: sol[2], A4: sol[3], A5: sol[4], A6: sol[5]}, nil
}

// EvaluateFit returns the mean and max relative error of the coefficients
// over the samples, comparing against max(observed, 1) to keep tiny regions
// from dominating the relative error.
func EvaluateFit(c ShieldCoeffs, samples []FitSample) (meanRel, maxRel float64) {
	for _, s := range samples {
		got := c.Estimate(float64(s.Nns), s.SumS, s.SumS2)
		den := s.Nss
		if den < 1 {
			den = 1
		}
		rel := (got - s.Nss) / den
		if rel < 0 {
			rel = -rel
		}
		meanRel += rel
		if rel > maxRel {
			maxRel = rel
		}
	}
	meanRel /= float64(len(samples))
	return meanRel, maxRel
}
