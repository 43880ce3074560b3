// Sinolab explores the per-region SINO problem interactively: it builds a
// single routing region with a configurable population of mutually
// sensitive net segments, solves it with net ordering alone, the greedy
// SINO heuristic, and simulated annealing, and renders the resulting track
// stacks side by side — the microscope view of what GSINO does thousands
// of times across a chip.
//
//	go run ./examples/sinolab -segs 12 -rate 0.5 -kth 0.6
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/keff"
	"repro/internal/sino"
	"repro/internal/tech"
)

func main() {
	log.SetFlags(0)
	segs := flag.Int("segs", 12, "net segments in the region")
	rate := flag.Float64("rate", 0.5, "pairwise sensitivity probability")
	kth := flag.Float64("kth", 0.6, "inductive bound for every segment")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	if *segs < 0 {
		log.Fatalf("-segs %d: want a non-negative count", *segs)
	}

	rng := rand.New(rand.NewSource(*seed))
	pairs := make(map[[2]int]bool)
	for i := 0; i < *segs; i++ {
		for j := i + 1; j < *segs; j++ {
			if rng.Float64() < *rate {
				pairs[[2]int{i, j}] = true
			}
		}
	}
	sens := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		return pairs[[2]int{a, b}]
	}
	segList := make([]sino.Seg, *segs)
	for i := range segList {
		segList[i] = sino.Seg{Net: i, Kth: *kth, Rate: *rate}
	}
	in := &sino.Instance{Segs: segList, Sensitive: sens, Model: keff.NewModel(tech.Default())}
	if err := in.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("region with %d segments, sensitivity %.0f%%, Kth=%.2f\n\n", *segs, *rate*100, *kth)

	no, noChk := sino.NetOrderOnly(in)
	fmt.Printf("net ordering only (NO): %d tracks, %d adjacent sensitive pairs, %d K violations\n",
		no.NumTracks(), len(noChk.CapPairs), len(noChk.Over))
	fmt.Println(" ", in.Render(no))

	greedy, gChk := sino.Solve(in)
	fmt.Printf("\ngreedy SINO: %d tracks (%d shields), feasible=%v\n",
		greedy.NumTracks(), greedy.NumShields(), gChk.Feasible())
	fmt.Println(" ", in.Render(greedy))
	fmt.Println(" ", in.RenderK(greedy))

	sa, saChk := sino.Anneal(in, sino.AnnealOptions{Seed: *seed, Iterations: 6000})
	fmt.Printf("\nannealed SINO: %d tracks (%d shields), feasible=%v\n",
		sa.NumTracks(), sa.NumShields(), saChk.Feasible())
	fmt.Println(" ", in.Render(sa))

	est := sino.DefaultShieldCoeffs().EstimateUniform(float64(*segs), *rate)
	fmt.Printf("\nFormula (3) shield estimate: %.1f (greedy used %d, annealed %d)\n",
		est, greedy.NumShields(), sa.NumShields())
}
