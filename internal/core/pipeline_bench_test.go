package core

import (
	"context"
	"testing"

	"repro/internal/ibm"
)

// BenchmarkBuildState times Phase II set-up, buildState, on the benchmark's
// wide-cold design (ibm05 at scale 2, rate 0.3, seed 1, GSINO's route,
// which runs once outside the timer).
func BenchmarkBuildState(b *testing.B) {
	profile, err := ibm.ProfileByName("ibm05")
	if err != nil {
		b.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: 2, SensRate: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(&Design{Name: "ibm05", Nets: ckt.Nets, Grid: ckt.Grid, Rate: 0.3}, Params{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := r.routeAll(context.Background(), true)
	if err != nil {
		b.Fatal(err)
	}
	var st *chipState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = r.buildState(res, budgetManhattan)
	}
	b.ReportMetric(float64(len(st.orderd)), "instances")
	b.ReportMetric(float64(st.segCount()), "segs")
}
