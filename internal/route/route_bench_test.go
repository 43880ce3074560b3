package route

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
)

// BenchmarkSeeding measures router construction — the serial head ROADMAP's
// Amdahl pass targets — with the per-net graph building fanned out in
// chunks. The serial arm is the nil-pool reference. Utilization seeding
// and initial edge weights stay serial on every arm (they are
// prefix-dependent), so Amdahl bounds the pooled arms by the fraction of
// construction that is pure per-net work; the bench exists to track that
// fraction, not to assert a speedup on any particular host.
func BenchmarkSeeding(b *testing.B) {
	g, err := grid.New(16, 16, 100, 100, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	nets := randomNets(7, 2000, 16, 16)
	arms := []struct {
		name string
		pool Pool
	}{
		{"serial", nil},
		{"workers1", engine.New(engine.Config{Workers: 1})},
		{"workers4", engine.New(engine.Config{Workers: 4})},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewRouterOn(context.Background(), g, Config{ShieldAware: true}, nets, arm.pool); err != nil {
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
