// Command fitshield regenerates the coefficients of the paper's Formula (3)
// — the shield-count estimator — by solving min-area SINO over a grid of
// region configurations (segment count × sensitivity rate, several
// realizations each) and least-squares fitting the per-configuration
// averages, the procedure the authors describe for their technical report.
// Paste the printed coefficients into internal/sino/estimate.go.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/sino"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fitshield: ")
	reps := flag.Int("reps", 16, "sensitivity realizations averaged per configuration")
	seed := flag.Int64("seed", 1, "random seed")
	kth := flag.Float64("kth", 0.7, "fixed inductive bound during fitting")
	anneal := flag.Bool("anneal", false, "solve instances by simulated annealing (slower, tighter)")
	flag.Parse()

	// FitConfig would swap a non-positive value for its default, which the
	// header would misreport, and a bound that is not finite panics in the
	// solver.
	if !(*kth > 0) || math.IsInf(*kth, 1) {
		log.Fatalf("-kth %g: want a finite, positive bound", *kth)
	}
	if *reps < 1 {
		log.Fatalf("-reps %d: want at least 1", *reps)
	}

	obs := sino.GenerateFitSamples(sino.FitConfig{
		Seed:      *seed,
		Reps:      *reps,
		Kth:       *kth,
		UseAnneal: *anneal,
	})
	coeffs, err := sino.FitCoeffs(obs)
	if err != nil {
		log.Fatal(err)
	}
	meanRel, maxRel := sino.EvaluateFit(coeffs, obs)
	fmt.Printf("configurations %d (reps %d, Kth %.2f)\n", len(obs), *reps, *kth)
	fmt.Printf("mean |rel err| %.3f\n", meanRel)
	fmt.Printf("max  |rel err| %.3f\n", maxRel)
	fmt.Printf("\n// paste into internal/sino/estimate.go:\n")
	fmt.Printf("A1: %.5g, A2: %.5g, A3: %.5g, A4: %.5g, A5: %.5g, A6: %.5g,\n",
		coeffs.A1, coeffs.A2, coeffs.A3, coeffs.A4, coeffs.A5, coeffs.A6)
}
