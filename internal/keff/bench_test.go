package keff

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// BenchmarkAllTotals measures one full totals pass (AllTotalsInto, the
// work of the SINO evaluator's selecting pass at a load), as a flow pays
// for it. It runs at two widths: 60 tracks (the mean instance width of
// an ibm01 scale-4 GSINO flow at rate 0.5) and 200, where most rows have
// a full cutoff of partners after them. Each layout has a shield every 12 tracks from
// position 7. A flow's instances each carry their own random relation, so
// each op takes the next of a ring of 256 seeded relations, at the
// workloads' rates 0.3 and 0.5: one fixed relation would let the branch
// predictor learn its partner tests. Besides ns/op each arm reports ns
// per evaluated pair and the mean pairs per pass; the pass allocates
// nothing.
//
// The kept arms (kept/tracks=…) time the pass an evaluator runs after a
// shield insertion instead: KeptTotalsInto, with a shield inserted 5
// tracks left of the layout's middle, between two existing shields. Each
// relation of the ring keeps its own rows, selected on the layout and
// carried over that insertion once before the timer starts; the pass is
// idempotent from there, so every op evaluates the pairs that insertion
// moved and carries the rest. They report ns per summed pair, the mean
// pairs per pass and the share of them evaluated.
func BenchmarkAllTotals(b *testing.B) {
	const ring = 256
	m := NewModel(tech.Default())
	for _, n := range []int{60, 200} {
		for _, rate := range []float64{0.3, 0.5} {
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
				pairs[r+1] = pairs[r] + inCutoffPairs(l, rels[r])
			}
			b.Run(fmt.Sprintf("tracks=%d/rate=%g", n, rate), func(b *testing.B) {
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

			b.Run(fmt.Sprintf("kept/tracks=%d/rate=%g", n, rate), func(b *testing.B) {
				at := n/2 - 5
				ins := append(append(append([]int{}, l[:at]...), Shield), l[at:]...)
				shields := m.ShieldTableInto(ins, nil)
				out := make([]float64, n+1)
				rows := make([]PartnerRows, ring)
				summed := make([]int, ring+1) // summed[r]: the first r relations' pairs
				work := 0
				for r := range rows {
					m.SelectTotalsInto(&rows[r], l, m.ShieldTableInto(l, nil), rels[r], out)
					evaluated, kept := m.KeptTotalsInto(&rows[r], ins, shields, at, out)
					summed[r+1] = summed[r] + evaluated + kept
					work += evaluated
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.KeptTotalsInto(&rows[i%ring], ins, shields, at, out)
				}
				total := b.N/ring*summed[ring] + summed[b.N%ring]
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/pair")
				b.ReportMetric(float64(summed[ring])/ring, "pairs")
				b.ReportMetric(float64(work)/float64(summed[ring]), "evaluated")
			})
		}
	}
}
