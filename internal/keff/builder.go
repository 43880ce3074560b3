package keff

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rlc"
	"repro/internal/tech"
)

// BuildConfig controls table construction from transient simulation (the
// SPICE-replacement path; paper §2.2: "we generate a number of SINO
// solutions for a single routing region, and compute the LSK values and
// corresponding crosstalk voltages via SPICE simulations for different wire
// lengths").
type BuildConfig struct {
	Tech *tech.Technology

	// Lengths are the wire lengths to simulate, meters. Empty selects
	// 0.5, 1, 2, 3 and 4 mm.
	Lengths []float64

	// Patterns are victim-centric region layouts: 'V' the victim, 'A' a
	// sensitive switching aggressor, 'Q' a quiet non-sensitive net, 'S' a
	// shield. Empty selects a spread of SINO-style solutions from heavily
	// shielded to unshielded.
	Patterns []string

	// Entries is the table size; 0 selects 100, the size used in the paper.
	Entries int
}

// The table's voltage column spans the paper's 0.10–0.20 V (10–20% of
// Vdd = 1.05 V).
const vLo, vHi = 0.10, 0.20

func (c *BuildConfig) defaults() {
	if len(c.Lengths) == 0 {
		c.Lengths = []float64{0.5e-3, 1e-3, 2e-3, 3e-3, 4e-3}
	}
	if len(c.Patterns) == 0 {
		c.Patterns = []string{
			"AV",
			"AVA",
			"ASVA",
			"ASVSA",
			"AAVAA",
			"AASVAA",
			"AASVSAA",
			"ASAVASA",
			"AAAVAAA",
			"QAVAQ",
			"AQSVQA",
			"SAAVAAS",
		}
	}
	if c.Entries <= 0 {
		c.Entries = 100
	}
}

// Sample pairs a model-predicted LSK value with a simulated noise voltage.
type Sample struct {
	Pattern string
	Length  float64 // meters
	LSK     float64 // micron·K
	Noise   float64 // volts
}

// parsePattern converts a pattern into the rlc bus wires, the keff layout,
// the victim index, and the aggressor net ids.
func parsePattern(p string) (wires []rlc.Wire, layout Layout, victim int, err error) {
	victim = -1
	for i, r := range p {
		switch r {
		case 'V':
			if victim >= 0 {
				return nil, Layout{}, 0, fmt.Errorf("keff: pattern %q has two victims", p)
			}
			victim = i
			wires = append(wires, rlc.Wire{Kind: rlc.Signal})
			layout.Tracks = append(layout.Tracks, SignalOf(i))
		case 'A':
			wires = append(wires, rlc.Wire{Kind: rlc.Signal, Switching: true})
			layout.Tracks = append(layout.Tracks, SignalOf(i))
		case 'Q':
			wires = append(wires, rlc.Wire{Kind: rlc.Signal})
			layout.Tracks = append(layout.Tracks, SignalOf(i))
		case 'S':
			wires = append(wires, rlc.Wire{Kind: rlc.Shield})
			layout.Tracks = append(layout.Tracks, ShieldOf())
		default:
			return nil, Layout{}, 0, fmt.Errorf("keff: pattern %q has unknown rune %q", p, r)
		}
	}
	if victim < 0 {
		return nil, Layout{}, 0, fmt.Errorf("keff: pattern %q has no victim", p)
	}
	return wires, layout, victim, nil
}

// patternRelation returns the sensitivity relation of a pattern: the
// victim is sensitive exactly to the 'A' tracks. Net ids equal pattern
// positions.
func patternRelation(p string) *Relation {
	rel := NewRelation(len(p))
	for a := range p {
		for b := range p {
			if a != b && p[a] == 'A' {
				rel.Set(a, b)
			}
		}
	}
	return rel
}

// trackIndexInLayout maps a pattern position to its layout track index
// (identical here since shields occupy layout slots too).
func trackIndexInLayout(l Layout, patternPos int) int { return patternPos }

// CollectSamples runs one transient simulation per (pattern, length) pair
// and returns the (LSK, noise) samples.
func CollectSamples(cfg BuildConfig) ([]Sample, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("keff: BuildConfig needs a technology")
	}
	cfg.defaults()
	model := NewModel(cfg.Tech)
	var out []Sample
	for _, p := range cfg.Patterns {
		wires, layout, victim, err := parsePattern(p)
		if err != nil {
			return nil, err
		}
		k := model.TotalCoupling(layout, trackIndexInLayout(layout, victim), patternRelation(p))
		for _, length := range cfg.Lengths {
			bus := &rlc.Bus{Tech: cfg.Tech, Wires: wires, Length: length}
			res, err := bus.Simulate(victim)
			if err != nil {
				return nil, fmt.Errorf("keff: pattern %q length %g: %w", p, length, err)
			}
			out = append(out, Sample{
				Pattern: p,
				Length:  length,
				LSK:     k * length * 1e6, // meters → microns
				Noise:   res.PeakNoise,
			})
		}
	}
	return out, nil
}

// FitLinear least-squares fits noise = intercept + slope·LSK over the
// samples. It returns an error when the fit is degenerate or non-monotone
// (slope ≤ 0), which would indicate the noise model and the coupling model
// disagree.
func FitLinear(samples []Sample) (slope, intercept float64, err error) {
	if len(samples) < 3 {
		return 0, 0, fmt.Errorf("keff: need at least 3 samples to fit, got %d", len(samples))
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(samples))
	for _, s := range samples {
		sx += s.LSK
		sy += s.Noise
		sxx += s.LSK * s.LSK
		sxy += s.LSK * s.Noise
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return 0, 0, fmt.Errorf("keff: degenerate fit (all LSK values equal)")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	if slope <= 0 {
		return 0, 0, fmt.Errorf("keff: non-monotone fit (slope %g); noise and coupling models disagree", slope)
	}
	return slope, intercept, nil
}

// RankCorrelation returns the Spearman rank correlation between LSK and
// noise over the samples — the paper's notion of model fidelity ("a signal
// net with a higher Ki value ... also has a higher SPICE-computed noise
// voltage").
func RankCorrelation(samples []Sample) float64 {
	n := len(samples)
	if n < 2 {
		return 1
	}
	rx := ranks(samples, func(s Sample) float64 { return s.LSK })
	ry := ranks(samples, func(s Sample) float64 { return s.Noise })
	var d2 float64
	for i := range rx {
		d := rx[i] - ry[i]
		d2 += d * d
	}
	return 1 - 6*d2/(float64(n)*float64(n*n-1))
}

func ranks(samples []Sample, key func(Sample) float64) []float64 {
	n := len(samples)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return key(samples[idx[a]]) < key(samples[idx[b]]) })
	r := make([]float64, n)
	for pos, i := range idx {
		r[i] = float64(pos)
	}
	return r
}

// BuildTable collects samples, fits the linear noise(LSK) relationship, and
// emits an Entries-row table spanning [vLo, vHi].
func BuildTable(cfg BuildConfig) (*Table, error) {
	cfg.defaults()
	samples, err := CollectSamples(cfg)
	if err != nil {
		return nil, err
	}
	slope, intercept, err := FitLinear(samples)
	if err != nil {
		return nil, err
	}
	lsk := make([]float64, cfg.Entries)
	v := make([]float64, cfg.Entries)
	for i := 0; i < cfg.Entries; i++ {
		vi := vLo + (vHi-vLo)*float64(i)/float64(cfg.Entries-1)
		v[i] = vi
		lsk[i] = (vi - intercept) / slope
	}
	if lsk[0] <= 0 {
		return nil, fmt.Errorf("keff: fitted table starts at non-positive LSK %g (intercept %g exceeds %g V)",
			lsk[0], intercept, vLo)
	}
	return NewTable(lsk, v)
}
