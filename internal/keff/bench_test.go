package keff

import (
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// BenchmarkAllTotals measures one full totals pass, the SINO evaluator's
// Load and shield-insertion recompute: a 60-track layout (the mean
// instance width of an ibm01 scale-4 GSINO flow at rate 0.5) with shields
// at fixed positions and a fixed random sensitivity relation at rate 0.5.
// Besides ns/op it reports ns per evaluated pair; the pass allocates
// nothing.
func BenchmarkAllTotals(b *testing.B) {
	const n = 60
	l := denseLayout(n, 7, 19, 31, 43, 55)
	rng := rand.New(rand.NewSource(1))
	var rel [n][n]bool
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rel[i][j] = rng.Float64() < 0.5
			rel[j][i] = rel[i][j]
		}
	}
	sens := func(a, b int) bool { return rel[a][b] }
	pairs := 0
	for i := range l.Tracks {
		for j := i + 1; j < n && j-i <= pairCutoff; j++ {
			if l.Tracks[i].Kind == SignalTrack && l.Tracks[j].Kind == SignalTrack && sens(i, j) {
				pairs++
			}
		}
	}

	m := NewModel(tech.Default())
	shields := m.ShieldTableInto(l.Tracks, nil)
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AllTotalsInto(l.Tracks, shields, sens, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
	b.ReportMetric(float64(pairs), "pairs")
}
