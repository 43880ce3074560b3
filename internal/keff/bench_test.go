package keff

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// BenchmarkAllTotals measures one full totals pass, the SINO evaluator's
// load and shield-insertion recompute, at two widths: 60 tracks (the mean
// instance width of an ibm01 scale-4 GSINO flow at rate 0.5) and 200,
// where most rows have a full cutoff of partners after them. Each layout has
// a shield every 12 tracks from position 7 and a fixed random sensitivity
// relation at rate 0.5. Besides ns/op each arm reports ns per evaluated
// pair; the pass allocates nothing.
func BenchmarkAllTotals(b *testing.B) {
	for _, n := range []int{60, 200} {
		b.Run(fmt.Sprintf("tracks=%d", n), func(b *testing.B) {
			var shieldAt []int
			for s := 7; s < n; s += 12 {
				shieldAt = append(shieldAt, s)
			}
			l := denseLayout(n, shieldAt...)
			rng := rand.New(rand.NewSource(1))
			rel := relOver(n, func(a, b int) bool { return rng.Float64() < 0.5 })
			pairs := 0
			for i := range l {
				for j := i + 1; j < n && j-i <= pairCutoff; j++ {
					if l[i] != Shield && l[j] != Shield && rel.Has(i, j) {
						pairs++
					}
				}
			}

			m := NewModel(tech.Default())
			shields := m.ShieldTableInto(l, nil)
			out := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.AllTotalsInto(l, shields, rel, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}
