package sino

import (
	"testing"
)

func TestEstimateClampsAndZeroes(t *testing.T) {
	c := DefaultShieldCoeffs()
	if got := c.Estimate(0, 0, 0); got != 0 {
		t.Errorf("Estimate(0,..) = %g, want 0", got)
	}
	if got := c.Estimate(-3, 1, 1); got != 0 {
		t.Errorf("Estimate(-3,..) = %g, want 0", got)
	}
	if got := c.EstimateUniform(10, 0); got < 0 {
		t.Errorf("EstimateUniform(10, 0) = %g, want >= 0", got)
	}
}

func TestEstimateGrowsWithSensitivity(t *testing.T) {
	c := DefaultShieldCoeffs()
	lo := c.EstimateUniform(20, 0.2)
	hi := c.EstimateUniform(20, 0.6)
	if hi <= lo {
		t.Errorf("estimate at rate 0.6 (%g) not above rate 0.2 (%g)", hi, lo)
	}
}

func TestEstimateGrowsWithPopulation(t *testing.T) {
	c := DefaultShieldCoeffs()
	lo := c.EstimateUniform(8, 0.5)
	hi := c.EstimateUniform(24, 0.5)
	if hi <= lo {
		t.Errorf("estimate at 24 segs (%g) not above 8 segs (%g)", hi, lo)
	}
}

// TestFormula3Reproduction regenerates a small fit and checks the paper's
// accuracy claim shape: the formula tracks min-area SINO shield counts with
// mean relative error around 10%.
func TestFormula3Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting solves hundreds of SINO instances")
	}
	obs := GenerateFitSamples(FitConfig{Seed: 42, Reps: 6})
	coeffs, err := FitCoeffs(obs)
	if err != nil {
		t.Fatal(err)
	}
	meanRel, _ := EvaluateFit(coeffs, obs)
	if meanRel > 0.2 {
		t.Errorf("fresh Formula(3) fit mean relative error %.3f, want <= 0.2 (paper: ~0.1)", meanRel)
	}
	// The embedded defaults must also track these observations reasonably.
	meanDefault, _ := EvaluateFit(DefaultShieldCoeffs(), obs)
	if meanDefault > 0.35 {
		t.Errorf("embedded coefficients mean relative error %.3f on fresh samples; regenerate with cmd/fitshield", meanDefault)
	}
}

func TestFitCoeffsNeedsSamples(t *testing.T) {
	if _, err := FitCoeffs(nil); err == nil {
		t.Error("FitCoeffs(nil): want error")
	}
	if _, err := FitCoeffs(make([]FitSample, 5)); err == nil {
		t.Error("FitCoeffs with 5 samples: want error")
	}
}

func TestFitCoeffsRecoversPlantedModel(t *testing.T) {
	// Build synthetic observations from a known coefficient vector and check
	// the fit recovers it.
	want := ShieldCoeffs{A1: 0.5, A2: -1, A3: 0.3, A4: 2, A5: 0.1, A6: -0.4}
	var samples []FitSample
	for n := 2; n <= 26; n += 2 {
		for _, s := range []float64{0.1, 0.3, 0.5, 0.7} {
			fs := FitSample{Nns: n, SumS: float64(n) * s, SumS2: float64(n) * s * s}
			fs.Nss = want.A1*fs.SumS2 + want.A2*fs.SumS2/float64(n) + want.A3*fs.SumS +
				want.A4*fs.SumS/float64(n) + want.A5*float64(n) + want.A6
			samples = append(samples, fs)
		}
	}
	got, err := FitCoeffs(samples)
	if err != nil {
		t.Fatal(err)
	}
	close := func(a, b float64) bool { d := a - b; return d < 1e-6 && d > -1e-6 }
	if !close(got.A1, want.A1) || !close(got.A2, want.A2) || !close(got.A3, want.A3) ||
		!close(got.A4, want.A4) || !close(got.A5, want.A5) || !close(got.A6, want.A6) {
		t.Errorf("recovered %+v, want %+v", got, want)
	}
}
