package budget

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/keff"
	"repro/internal/netlist"
)

func testBudgeter() *Budgeter {
	return &Budgeter{Table: keff.DefaultTable(), VThreshold: 0.15}
}

func netAt(dist geom.Micron) *netlist.Net {
	return &netlist.Net{ID: 0, Pins: []netlist.Pin{
		{Loc: geom.MicronPoint{X: 0, Y: 0}},
		{Loc: geom.MicronPoint{X: dist, Y: 0}},
	}}
}

func TestValidate(t *testing.T) {
	if err := testBudgeter().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Budgeter{VThreshold: 0.15}).Validate(); err == nil {
		t.Error("nil table: want error")
	}
	for _, v := range []float64{0, -0.15, math.NaN(), math.Inf(1)} {
		if err := (&Budgeter{Table: keff.DefaultTable(), VThreshold: v}).Validate(); err == nil {
			t.Errorf("threshold %g: want error", v)
		}
	}
}

func TestLSKBudgetMatchesTable(t *testing.T) {
	b := testBudgeter()
	want := keff.DefaultTable().LSKFor(0.15)
	if got := b.LSKBudget(); math.Abs(got-want) > 1e-9 {
		t.Errorf("LSKBudget = %g, want %g", got, want)
	}
}

func TestUniformNetScalesInverselyWithDistance(t *testing.T) {
	b := testBudgeter()
	short := b.UniformNet(netAt(500))
	long := b.UniformNet(netAt(2000))
	if long >= short {
		t.Errorf("longer net got looser bound: %g vs %g", long, short)
	}
	// Exact relation where no clamp applies: Kth = LSKb / Le.
	lskb := b.LSKBudget()
	if want := lskb / 2000; math.Abs(long-want) > 1e-9 && long != b.kCeil() && long != b.kFloor() {
		t.Errorf("Kth(2000um) = %g, want %g", long, want)
	}
}

func TestBoundsClamped(t *testing.T) {
	b := testBudgeter()
	// Very short nets hit the ceiling, absurdly long ones the floor.
	if got := b.UniformNet(netAt(1)); got != b.kCeil() {
		t.Errorf("tiny net bound = %g, want ceiling %g", got, b.kCeil())
	}
	if got := b.UniformNet(netAt(10_000_000)); got != b.kFloor() {
		t.Errorf("huge net bound = %g, want floor %g", got, b.kFloor())
	}
	// Multi-pin nets with zero spread are unconstrained.
	n := &netlist.Net{ID: 0, Pins: []netlist.Pin{{}, {}}}
	if got := b.UniformNet(n); got != b.kCeil() {
		t.Errorf("zero-length net bound = %g, want ceiling", got)
	}
}

func TestForLength(t *testing.T) {
	b := testBudgeter()
	lskb := b.LSKBudget()
	if got := b.ForLength(geom.Micron(lskb)); math.Abs(got-1) > 1e-9 {
		t.Errorf("ForLength(budget um) = %g, want 1", got)
	}
	if got := b.ForLength(0); got != b.kCeil() {
		t.Errorf("ForLength(0) = %g, want ceiling", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	b := testBudgeter()
	if b.kFloor() != 0.05 || b.kCeil() != 4 {
		t.Errorf("defaults = %g, %g", b.kFloor(), b.kCeil())
	}
	b.KFloor, b.KCeil = 0.1, 2
	if b.kFloor() != 0.1 || b.kCeil() != 2 {
		t.Errorf("overrides = %g, %g", b.kFloor(), b.kCeil())
	}
}
