package keff

import (
	"fmt"
	"sort"
)

// Table maps LSK values to RLC crosstalk voltages (paper §2.2). Entries are
// strictly increasing in both columns; lookups interpolate linearly and
// extrapolate with the boundary slopes, so the map is usable slightly
// outside the tabulated 0.10–0.20 V band.
type Table struct {
	LSK []float64 // micron·K units
	V   []float64 // volts
}

// NewTable validates the two columns and returns a Table.
func NewTable(lsk, v []float64) (*Table, error) {
	if len(lsk) != len(v) {
		return nil, fmt.Errorf("keff: table columns differ in length: %d vs %d", len(lsk), len(v))
	}
	if len(lsk) < 2 {
		return nil, fmt.Errorf("keff: table needs at least 2 entries, got %d", len(lsk))
	}
	for i := 1; i < len(lsk); i++ {
		if lsk[i] <= lsk[i-1] {
			return nil, fmt.Errorf("keff: LSK column not strictly increasing at entry %d (%g after %g)", i, lsk[i], lsk[i-1])
		}
		if v[i] <= v[i-1] {
			return nil, fmt.Errorf("keff: voltage column not strictly increasing at entry %d (%g after %g)", i, v[i], v[i-1])
		}
	}
	if lsk[0] < 0 || v[0] <= 0 {
		return nil, fmt.Errorf("keff: table must start at non-negative LSK and positive voltage")
	}
	return &Table{
		LSK: append([]float64(nil), lsk...),
		V:   append([]float64(nil), v...),
	}, nil
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.LSK) }

// LSKFor returns the LSK value that produces crosstalk voltage v — the
// inverse lookup used by crosstalk budgeting (Phase I).
func (t *Table) LSKFor(v float64) float64 {
	l := interp(t.V, t.LSK, v)
	if l < 0 {
		return 0
	}
	return l
}

// interp linearly interpolates y(x) through the strictly increasing xs,
// extrapolating with the boundary segment slopes.
func interp(xs, ys []float64, x float64) float64 {
	n := len(xs)
	switch {
	case x <= xs[0]:
		slope := (ys[1] - ys[0]) / (xs[1] - xs[0])
		return ys[0] + slope*(x-xs[0])
	case x >= xs[n-1]:
		slope := (ys[n-1] - ys[n-2]) / (xs[n-1] - xs[n-2])
		return ys[n-1] + slope*(x-xs[n-1])
	}
	i := sort.SearchFloat64s(xs, x)
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// defaultSlope and defaultIntercept define the embedded default table:
// noise ≈ intercept + slope·LSK, the linear relationship the paper reports
// ("the noise voltage is roughly a linearly increasing function of the wire
// length"). The constants were produced by fitting the output of
// BuildTable (cmd/lsktable) over SINO-style layouts at 0.5–4 mm with the
// default ITRS 0.10 µm technology; regenerate them with:
//
//	go run ./cmd/lsktable -fit
var (
	defaultSlope     = 4.13e-5 // volts per micron·K
	defaultIntercept = 0.0461  // volts
)

// DefaultTable returns the embedded 100-entry LSK→voltage table spanning
// 0.10 V to 0.20 V (≈10–20% of Vdd = 1.05 V), mirroring the table used in
// the paper. It is generated from the linear fit constants above so that
// routing does not depend on running transient simulations.
func DefaultTable() *Table {
	const entries = 100
	const vLo, vHi = 0.10, 0.20
	lsk := make([]float64, entries)
	v := make([]float64, entries)
	for i := 0; i < entries; i++ {
		vi := vLo + (vHi-vLo)*float64(i)/float64(entries-1)
		v[i] = vi
		lsk[i] = (vi - defaultIntercept) / defaultSlope
	}
	t, err := NewTable(lsk, v)
	if err != nil {
		panic("keff: invalid embedded default table: " + err.Error())
	}
	return t
}
