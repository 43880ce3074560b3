package mna

// Waveform is a time-dependent source value.
type Waveform interface {
	// At returns the source value in volts at time t seconds.
	At(t float64) float64
}

// Ramp rises linearly from V0 to V1 between Start and Start+Rise and holds V1
// afterwards. Before Start it holds V0. A zero Rise is a step.
type Ramp struct {
	V0, V1      float64
	Start, Rise float64
}

// At evaluates the ramp at time t.
func (r Ramp) At(t float64) float64 {
	switch {
	case t <= r.Start:
		return r.V0
	case r.Rise <= 0 || t >= r.Start+r.Rise:
		return r.V1
	default:
		return r.V0 + (r.V1-r.V0)*(t-r.Start)/r.Rise
	}
}
