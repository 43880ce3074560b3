package artifact

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/ibm"
	"repro/internal/route"
)

// wideArtifact routes the benchmark's wide-cold design (ibm05 at scale 2,
// rate 0.3, seed 1: 14,822 nets) shield-aware and seals the result with
// its drain state.
func wideArtifact(b *testing.B) *Artifact {
	b.Helper()
	profile, err := ibm.ProfileByName("ibm05")
	if err != nil {
		b.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: 2, SensRate: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	nets := make([]route.Net, len(ckt.Nets.Nets))
	for i, n := range ckt.Nets.Nets {
		pins := make([]geom.Point, len(n.Pins))
		for j, p := range n.Pins {
			pins[j] = ckt.Grid.RegionOf(p.Loc)
		}
		nets[i] = route.Net{ID: i, Pins: pins, Rate: ckt.Nets.Sensitivity.Rate(i)}
	}
	cfg := route.Config{ShieldAware: true}
	r, err := route.NewRouter(ckt.Grid, cfg, nets)
	if err != nil {
		b.Fatal(err)
	}
	res, ds, err := r.RunShardedState(context.Background(), nil, route.ShardConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return Seal(KeyFor(ckt.Grid, cfg, route.ShardConfig{}, nets), res, ds)
}

// Sinks for BenchmarkCodec's results, so no call is optimized away.
var (
	benchData []byte
	benchArt  *Artifact
)

// BenchmarkCodec measures the artifact codec on the wide-cold design's
// artifact: Encode (the seal check, the size pass and the write), Decode
// (checksum, the result decoder and the fingerprint re-hash: what a warm
// disk hit pays) and Decode followed by Drain (the drain-state decoder
// too: what an ECO resume from a disk base pays). It reports the
// artifact's length, B/op and allocations per op.
func BenchmarkCodec(b *testing.B) {
	a := wideArtifact(b)
	data, err := Encode(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if benchData, err = Encode(a); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "artifact-B")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if benchArt, err = Decode(data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "artifact-B")
	})
	b.Run("decode+drain", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if benchArt, err = Decode(data); err != nil {
				b.Fatal(err)
			}
			if _, err = benchArt.Drain(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "artifact-B")
	})
}
