package route

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ibm"
)

// BenchmarkSeeding measures router construction — the serial head ROADMAP's
// Amdahl pass targets — with the per-net graph building fanned out in
// chunks. The serial arm is the nil-pool reference. Utilization seeding
// and initial edge weights stay serial on every arm (they are
// prefix-dependent), so Amdahl bounds the pooled arms by the fraction of
// construction that is pure per-net work; the bench exists to track that
// fraction, not to assert a speedup on any particular host. The
// wide-cold arm seeds the benchmark's wide-cold design (ibm05 at scale 2,
// 14,822 nets) with the serial pool.
func BenchmarkSeeding(b *testing.B) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	nets := randomNets(7, 2000, 16, 16)
	wideGrid, wideNets := wideColdNets(b)
	arms := []struct {
		name string
		g    *grid.Grid
		nets []Net
		pool Pool
	}{
		{"serial", g, nets, nil},
		{"workers1", g, nets, engine.New(engine.Config{Workers: 1})},
		{"workers4", g, nets, engine.New(engine.Config{Workers: 4})},
		{"wide-cold", wideGrid, wideNets, nil},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewRouterOn(context.Background(), arm.g, Config{ShieldAware: true}, arm.nets, arm.pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchReconcileNets lays out `clusters` bbox-disjoint rows of parallel
// nets, each overflowing unit capacity — reconciliation sees one connected
// component per cluster, the fan-out the component-sharded drain exploits.
func benchReconcileNets(clusters int) (int, []Net) {
	rows := 4*clusters + 1
	var nets []Net
	for c := 0; c < clusters; c++ {
		y := 4*c + 1
		for i := 0; i < 6; i++ {
			nets = append(nets, Net{ID: len(nets), Pins: []geom.Point{{X: 0, Y: y}, {X: 15, Y: y}}})
		}
	}
	return rows, nets
}

// BenchmarkReconcile measures RunSharded end to end on overflowing designs
// whose rip-up sets split into several disjoint components, across serial
// and pooled drains. Reseeding and merging stay serial by definition; the
// component drains are what parallelize.
func BenchmarkReconcile(b *testing.B) {
	for _, clusters := range []int{2, 8} {
		rows, nets := benchReconcileNets(clusters)
		g, err := grid.New(16, rows, 100, 100, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		arms := []struct {
			name string
			pool Pool
		}{
			{"serial", nil},
			{"workers4", engine.New(engine.Config{Workers: 4})},
		}
		for _, arm := range arms {
			b.Run(fmt.Sprintf("clusters%d/%s", clusters, arm.name), func(b *testing.B) {
				var last RunStats
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := NewRouter(g, Config{}, nets)
					if err != nil {
						b.Fatal(err)
					}
					res, err := r.RunSharded(context.Background(), arm.pool, ShardConfig{})
					if err != nil {
						b.Fatal(err)
					}
					last = res.Stats
				}
				b.ReportMetric(float64(last.ReconcileComponents), "components")
				b.ReportMetric(float64(last.Reconciled), "reconciled")
			})
		}
	}
}

// wideColdNets returns the routing requests of the benchmark's wide-cold
// design: ibm05 at scale 2, sensitivity rate 0.3, seed 1.
func wideColdNets(tb testing.TB) (*grid.Grid, []Net) {
	tb.Helper()
	profile, err := ibm.ProfileByName("ibm05")
	if err != nil {
		tb.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: 2, SensRate: 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	nets := make([]Net, len(ckt.Nets.Nets))
	for i, n := range ckt.Nets.Nets {
		pins := make([]geom.Point, len(n.Pins))
		for j, p := range n.Pins {
			pins[j] = ckt.Grid.RegionOf(p.Loc)
		}
		nets[i] = Net{ID: i, Pins: pins, Rate: ckt.Nets.Sensitivity.Rate(i)}
	}
	return ckt.Grid, nets
}

// BenchmarkDrainWideCold times GSINO's Phase I on the wide-cold design
// with the serial pool, router seeding excluded: the 56 tile drains, the
// merge, both reconciliation rounds (the 2,748-net round 0 among them) and
// tree extraction. It reports the nets reconciled, the items the drains
// popped per op and the time per pop.
func BenchmarkDrainWideCold(b *testing.B) {
	g, nets := wideColdNets(b)
	var elapsed time.Duration
	var pops int
	var last RunStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := NewRouter(g, Config{ShieldAware: true}, nets)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		res, err := r.RunSharded(context.Background(), nil, ShardConfig{})
		elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		pops += r.pops
		last = res.Stats
	}
	b.ReportMetric(float64(last.Reconciled), "reconciled")
	b.ReportMetric(float64(pops)/float64(b.N), "pops")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(pops), "ns/pop")
}
