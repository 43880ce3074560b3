// Benchmarks regenerating the paper's evaluation artifacts (Ma & He,
// DAC'02). One benchmark family exists per published table, plus the §2.2
// modeling claims and ablations of the design choices called out in
// DESIGN.md. Benchmarks run on scaled circuits so `go test -bench .`
// finishes in minutes; paper-comparable numbers come from
// `go run ./cmd/tables -scale 1` (see EXPERIMENTS.md).
//
// Each table bench reports, besides ns/op, the paper metric it regenerates
// (violation percentage, wirelength overhead, area overhead) as custom
// benchmark units.
package main

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/ibm"
	"repro/internal/keff"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sino"
	"repro/internal/tech"
)

const benchScale = 8

func benchCircuit(b *testing.B, name string, rate float64) *core.Design {
	b.Helper()
	profile, err := ibm.ProfileByName(name)
	if err != nil {
		b.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: benchScale, SensRate: rate})
	if err != nil {
		b.Fatal(err)
	}
	return &core.Design{Name: profile.Name, Nets: ckt.Nets, Grid: ckt.Grid, Rate: rate}
}

func runFlow(b *testing.B, d *core.Design, f core.Flow) *core.Outcome {
	b.Helper()
	r, err := core.NewRunner(d, core.Params{})
	if err != nil {
		b.Fatal(err)
	}
	out, err := r.Run(f)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkTable1 regenerates Table 1: crosstalk-violating nets in ID+NO
// solutions per circuit and sensitivity rate.
func BenchmarkTable1(b *testing.B) {
	for _, name := range []string{"ibm01", "ibm02", "ibm03", "ibm04", "ibm05", "ibm06"} {
		for _, rate := range []float64{0.3, 0.5} {
			b.Run(fmt.Sprintf("%s/rate%.0f", name, rate*100), func(b *testing.B) {
				d := benchCircuit(b, name, rate)
				var out *core.Outcome
				for i := 0; i < b.N; i++ {
					out = runFlow(b, d, core.FlowIDNO)
				}
				b.ReportMetric(out.ViolationPct, "viol%")
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2: GSINO average wirelength and its
// overhead versus ID+NO.
func BenchmarkTable2(b *testing.B) {
	for _, name := range []string{"ibm01", "ibm03", "ibm06"} {
		for _, rate := range []float64{0.3, 0.5} {
			b.Run(fmt.Sprintf("%s/rate%.0f", name, rate*100), func(b *testing.B) {
				d := benchCircuit(b, name, rate)
				base := runFlow(b, d, core.FlowIDNO)
				var gs *core.Outcome
				for i := 0; i < b.N; i++ {
					gs = runFlow(b, d, core.FlowGSINO)
				}
				b.ReportMetric(float64(gs.AvgWL), "avgWLum")
				b.ReportMetric(gs.WLOverheadPct(base), "WLoverhead%")
			})
		}
	}
}

// BenchmarkTable3 regenerates Table 3: routing-area overheads of iSINO and
// GSINO versus ID+NO.
func BenchmarkTable3(b *testing.B) {
	for _, name := range []string{"ibm01", "ibm04", "ibm05"} {
		for _, rate := range []float64{0.3, 0.5} {
			b.Run(fmt.Sprintf("%s/rate%.0f", name, rate*100), func(b *testing.B) {
				d := benchCircuit(b, name, rate)
				base := runFlow(b, d, core.FlowIDNO)
				var is, gs *core.Outcome
				for i := 0; i < b.N; i++ {
					is = runFlow(b, d, core.FlowISINO)
					gs = runFlow(b, d, core.FlowGSINO)
				}
				b.ReportMetric(is.AreaOverheadPct(base), "iSINOarea%")
				b.ReportMetric(gs.AreaOverheadPct(base), "GSINOarea%")
			})
		}
	}
}

// BenchmarkLSKFidelity regenerates the §2.2 modeling study: transient
// simulations of SINO layouts and the rank correlation between LSK and
// simulated noise.
func BenchmarkLSKFidelity(b *testing.B) {
	cfg := keff.BuildConfig{
		Tech:     tech.Default(),
		Lengths:  []float64{1e-3, 2e-3},
		Patterns: []string{"AV", "AVA", "ASVA", "AAVAA", "AAAVAAA"},
	}
	var rho float64
	for i := 0; i < b.N; i++ {
		samples, err := keff.CollectSamples(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rho = keff.RankCorrelation(samples)
	}
	b.ReportMetric(rho, "rank-corr")
}

// BenchmarkShieldEstimate regenerates the Formula (3) accuracy check
// (paper §3.1: estimates within ~10% of min-area SINO).
func BenchmarkShieldEstimate(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		obs := sino.GenerateFitSamples(sino.FitConfig{Seed: 7, Reps: 3})
		mean, _ = sino.EvaluateFit(sino.DefaultShieldCoeffs(), obs)
	}
	b.ReportMetric(mean*100, "meanerr%")
}

// BenchmarkSINOSolver measures the per-region SINO heuristic across
// instance sizes — the inner loop of Phases II and III — on a pooled
// evaluator, as engine workers reuse theirs, but without a shared cache,
// so every pair coupling is computed directly. The oneshot variant keeps
// the cold-start cost (fresh evaluator per call) visible.
func BenchmarkSINOSolver(b *testing.B) {
	for _, n := range []int{10, 30, 60, 120} {
		model := keff.NewModel(tech.Default())
		sens := netlist.NewHashSensitivity(5, 0.3)
		segs := make([]sino.Seg, n)
		for i := range segs {
			segs[i] = sino.Seg{Net: i, Kth: 0.7, Rate: 0.3}
		}
		in := &sino.Instance{Segs: segs, Sensitive: sens.Sensitive, Model: model}
		b.Run(fmt.Sprintf("segs%d", n), func(b *testing.B) {
			ev := sino.NewEval()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sino.SolveWith(ev, in)
			}
		})
		b.Run(fmt.Sprintf("segs%d/oneshot", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sino.Solve(in)
			}
		})
	}
}

// phaseIIJobs routes a scaled IBM circuit and builds the Phase II workload:
// one SINO instance per non-empty (region, direction), exactly the batch
// core hands to the engine, reconstructed here from public APIs.
func phaseIIJobs(b *testing.B, name string, rate float64) ([]engine.Job, *keff.Model) {
	b.Helper()
	profile, err := ibm.ProfileByName(name)
	if err != nil {
		b.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: benchScale, SensRate: rate})
	if err != nil {
		b.Fatal(err)
	}
	nets := make([]route.Net, len(ckt.Nets.Nets))
	for i := range ckt.Nets.Nets {
		nets[i] = route.Net{ID: i, Rate: rate}
		for _, p := range ckt.Nets.Nets[i].Pins {
			nets[i].Pins = append(nets[i].Pins, ckt.Grid.RegionOf(p.Loc))
		}
	}
	router, err := route.NewRouter(ckt.Grid, route.Config{ShieldAware: true}, nets)
	if err != nil {
		b.Fatal(err)
	}
	res := router.Run()

	type key struct {
		region int
		horz   bool
	}
	model := keff.NewModel(tech.Default())
	buckets := make(map[key][]sino.Seg)
	var order []key
	add := func(k key, net int) {
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], sino.Seg{Net: net, Kth: 0.6, Rate: rate})
	}
	for i := range res.Trees {
		seen := make(map[key]bool)
		for _, e := range res.Trees[i].Edges {
			for _, p := range []geom.Point{e.From, e.To} {
				k := key{ckt.Grid.Index(p), e.Horizontal()}
				if !seen[k] {
					seen[k] = true
					add(k, i)
				}
			}
		}
	}
	jobs := make([]engine.Job, 0, len(order))
	for _, k := range order {
		jobs = append(jobs, engine.Job{
			Inst: &sino.Instance{Segs: buckets[k], Sensitive: ckt.Nets.Sensitivity.Sensitive, Model: model},
			Mode: engine.ModeSolve,
		})
	}
	return jobs, model
}

// BenchmarkEngineParallel measures Phase II throughput on the engine across
// worker counts. workers1 is the sequential baseline; on a multi-core
// machine the higher settings should approach linear speedup (the instances
// are independent and the shared coupling cache is read-mostly).
func BenchmarkEngineParallel(b *testing.B) {
	counts := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n > 8 {
		counts = append(counts, n)
	}
	for _, name := range []string{"ibm01", "ibm05"} {
		jobs, model := phaseIIJobs(b, name, 0.5)
		for _, w := range counts {
			b.Run(fmt.Sprintf("%s/workers%d", name, w), func(b *testing.B) {
				e := engine.New(engine.Config{Workers: w, Model: model})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := e.Run(context.Background(), jobs)
					if err != nil {
						b.Fatal(err)
					}
					if err := engine.FirstError(res); err != nil {
						b.Fatal(err)
					}
				}
				st := e.Stats()
				b.ReportMetric(float64(len(jobs)), "instances")
				b.ReportMetric(st.HitRate()*100, "cachehit%")
			})
		}
	}
}

// BenchmarkEngineCacheAblation isolates the coupling cache: the same Phase
// II batch solved sequentially with and without a shared PairCache.
func BenchmarkEngineCacheAblation(b *testing.B) {
	jobs, model := phaseIIJobs(b, "ibm01", 0.5)
	for _, cached := range []bool{false, true} {
		name := "nocache"
		if cached {
			name = "cache"
		}
		b.Run(name, func(b *testing.B) {
			// Engine (and cache) construction stays outside the timed loop;
			// the cached arm measures shared-cache steady state.
			e := engine.New(engine.Config{Workers: 1, Model: model})
			m := model.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cached {
					if _, err := e.Run(context.Background(), jobs); err != nil {
						b.Fatal(err)
					}
				} else {
					for j := range jobs {
						inst := *jobs[j].Inst
						inst.Model = m
						sino.Solve(&inst)
					}
				}
			}
		})
	}
}

// BenchmarkEngineParallelEndToEnd is the Phase I-inclusive variant of
// BenchmarkEngineParallel: a full GSINO flow — sharded Phase I routing,
// Phase II region solves, Phase III refinement — on one runner across
// worker counts. Results are byte-identical at every setting, so the ratio
// of workers1 to the higher settings is pure wall-clock speedup.
func BenchmarkEngineParallelEndToEnd(b *testing.B) {
	counts := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n > 8 {
		counts = append(counts, n)
	}
	for _, name := range []string{"ibm01", "ibm05"} {
		d := benchCircuit(b, name, 0.5)
		for _, w := range counts {
			b.Run(fmt.Sprintf("%s/workers%d", name, w), func(b *testing.B) {
				r, err := core.NewRunner(d, core.Params{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				var out *core.Outcome
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err = r.Run(core.FlowGSINO)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(out.Route.Shards), "shards")
				b.ReportMetric(float64(out.Route.Reconciled), "reconciled")
			})
		}
	}
}

// BenchmarkIDRouterParallel isolates Phase I: the sharded
// iterative-deletion router on the engine pool across worker counts,
// versus the same tiling drained serially (workers1).
func BenchmarkIDRouterParallel(b *testing.B) {
	counts := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n > 8 {
		counts = append(counts, n)
	}
	for _, name := range []string{"ibm01", "ibm05"} {
		profile, err := ibm.ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: benchScale, SensRate: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		nets := make([]route.Net, len(ckt.Nets.Nets))
		for i := range ckt.Nets.Nets {
			nets[i] = route.Net{ID: i, Rate: 0.3}
			for _, p := range ckt.Nets.Nets[i].Pins {
				nets[i].Pins = append(nets[i].Pins, ckt.Grid.RegionOf(p.Loc))
			}
		}
		for _, w := range counts {
			b.Run(fmt.Sprintf("%s/workers%d", name, w), func(b *testing.B) {
				pool := engine.New(engine.Config{Workers: w})
				var stats route.RunStats
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					router, err := route.NewRouter(ckt.Grid, route.Config{ShieldAware: true}, nets)
					if err != nil {
						b.Fatal(err)
					}
					res, err := router.RunSharded(context.Background(), pool, route.ShardConfig{})
					if err != nil {
						b.Fatal(err)
					}
					stats = res.Stats
				}
				b.ReportMetric(float64(stats.Shards), "shards")
			})
		}
	}
}

// BenchmarkIDRouter measures the iterative-deletion router alone.
func BenchmarkIDRouter(b *testing.B) {
	for _, name := range []string{"ibm01", "ibm05"} {
		b.Run(name, func(b *testing.B) {
			profile, err := ibm.ProfileByName(name)
			if err != nil {
				b.Fatal(err)
			}
			ckt, err := ibm.Generate(profile, ibm.Options{Seed: 1, Scale: benchScale, SensRate: 0.3})
			if err != nil {
				b.Fatal(err)
			}
			nets := make([]route.Net, len(ckt.Nets.Nets))
			for i := range ckt.Nets.Nets {
				nets[i] = route.Net{ID: i, Rate: 0.3}
				for _, p := range ckt.Nets.Nets[i].Pins {
					nets[i].Pins = append(nets[i].Pins, ckt.Grid.RegionOf(p.Loc))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				router, err := route.NewRouter(ckt.Grid, route.Config{ShieldAware: true}, nets)
				if err != nil {
					b.Fatal(err)
				}
				router.Run()
			}
		})
	}
}

// BenchmarkAblationShieldAwareness quantifies the DESIGN.md ablation: the
// GSINO router's shield-aware weights versus oblivious routing, measured by
// iSINO-minus-GSINO area contrast on the same circuit.
func BenchmarkAblationShieldAwareness(b *testing.B) {
	d := benchCircuit(b, "ibm01", 0.5)
	base := runFlow(b, d, core.FlowIDNO)
	var is, gs *core.Outcome
	for i := 0; i < b.N; i++ {
		is = runFlow(b, d, core.FlowISINO)
		gs = runFlow(b, d, core.FlowGSINO)
	}
	b.ReportMetric(is.AreaOverheadPct(base)-gs.AreaOverheadPct(base), "contrast%")
}

// BenchmarkAblationGamma sweeps the overflow weight γ of Formula (2),
// reporting the overflowed-region count at each setting.
func BenchmarkAblationGamma(b *testing.B) {
	for _, gamma := range []float64{1, 10, 50, 200} {
		b.Run(fmt.Sprintf("gamma%g", gamma), func(b *testing.B) {
			d := benchCircuit(b, "ibm01", 0.3)
			var out *core.Outcome
			for i := 0; i < b.N; i++ {
				r, err := core.NewRunner(d, core.Params{Alpha: 2, Beta: 1, Gamma: gamma})
				if err != nil {
					b.Fatal(err)
				}
				out, err = r.Run(core.FlowIDNO)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Congestion.OverflowedH+out.Congestion.OverflowedV), "overflowed")
		})
	}
}

// BenchmarkAblationSensitivitySweep extends the paper's observation about
// the 30%→50% trend across a wider sensitivity range.
func BenchmarkAblationSensitivitySweep(b *testing.B) {
	for _, rate := range []float64{0.1, 0.3, 0.5, 0.7} {
		b.Run(fmt.Sprintf("rate%.0f", rate*100), func(b *testing.B) {
			d := benchCircuit(b, "ibm01", rate)
			var out *core.Outcome
			for i := 0; i < b.N; i++ {
				out = runFlow(b, d, core.FlowIDNO)
			}
			b.ReportMetric(out.ViolationPct, "viol%")
		})
	}
}

// BenchmarkAblationBudgetPolicy compares uniform Phase I budgeting against
// the §5 congestion-weighted alternative, reporting the GSINO area overhead
// under each policy.
func BenchmarkAblationBudgetPolicy(b *testing.B) {
	for _, alt := range []bool{false, true} {
		name := "uniform"
		if alt {
			name = "congestion"
		}
		b.Run(name, func(b *testing.B) {
			d := benchCircuit(b, "ibm01", 0.5)
			baseRunner, err := core.NewRunner(d, core.Params{})
			if err != nil {
				b.Fatal(err)
			}
			base, err := baseRunner.Run(core.FlowIDNO)
			if err != nil {
				b.Fatal(err)
			}
			var gs *core.Outcome
			for i := 0; i < b.N; i++ {
				r, err := core.NewRunner(d, core.Params{CongestionBudgeting: alt})
				if err != nil {
					b.Fatal(err)
				}
				gs, err = r.Run(core.FlowGSINO)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(gs.AreaOverheadPct(base), "area%")
			b.ReportMetric(float64(gs.Shields), "shields")
		})
	}
}

// BenchmarkMNATransient measures the SPICE-replacement transient engine on
// a representative coupled-bus circuit.
func BenchmarkMNATransient(b *testing.B) {
	samples := []string{"AAVAA"}
	cfg := keff.BuildConfig{Tech: tech.Default(), Lengths: []float64{2e-3}, Patterns: samples}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := keff.CollectSamples(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
