package keff

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// BenchmarkAllTotals measures one full totals pass, the SINO evaluator's
// load and shield-insertion recompute, as a flow pays for it. It runs at
// two widths: 60 tracks (the mean instance width of an ibm01 scale-4
// GSINO flow at rate 0.5) and 200, where most rows have a full cutoff of
// partners after them. Each layout has a shield every 12 tracks from
// position 7. A flow's instances each carry their own random relation, so
// each op takes the next of a ring of 256 seeded relations, at the
// workloads' rates 0.3 and 0.5: one fixed relation would let the branch
// predictor learn its partner tests. Besides ns/op each arm reports ns
// per evaluated pair and the mean pairs per pass; the pass allocates
// nothing.
func BenchmarkAllTotals(b *testing.B) {
	const ring = 256
	for _, n := range []int{60, 200} {
		for _, rate := range []float64{0.3, 0.5} {
			b.Run(fmt.Sprintf("tracks=%d/rate=%g", n, rate), func(b *testing.B) {
				var shieldAt []int
				for s := 7; s < n; s += 12 {
					shieldAt = append(shieldAt, s)
				}
				l := denseLayout(n, shieldAt...)
				rng := rand.New(rand.NewSource(1))
				rels := make([]*Relation, ring)
				pairs := make([]int, ring+1) // pairs[r]: the first r relations' pairs
				for r := range rels {
					rels[r] = relOver(n, func(a, b int) bool { return rng.Float64() < rate })
					pairs[r+1] = pairs[r]
					for i := range l {
						for j := i + 1; j < n && j-i <= pairCutoff; j++ {
							if l[i] != Shield && l[j] != Shield && rels[r].Has(i, j) {
								pairs[r+1]++
							}
						}
					}
				}

				m := NewModel(tech.Default())
				shields := m.ShieldTableInto(l, nil)
				out := make([]float64, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.AllTotalsInto(l, shields, rels[i%ring], out)
				}
				evaluated := b.N/ring*pairs[ring] + pairs[b.N%ring]
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evaluated), "ns/pair")
				b.ReportMetric(float64(pairs[ring])/ring, "pairs")
			})
		}
	}
}
