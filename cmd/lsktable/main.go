// Command lsktable builds the LSK→crosstalk-voltage lookup table from RLC
// transient simulations, reproducing the paper's SPICE-based table
// construction (§2.2). It can print the raw (LSK, noise) samples, the
// linear-fit constants used by keff.DefaultTable, or the full table.
//
// Usage:
//
//	lsktable            print the 100-entry table (LSK, V columns)
//	lsktable -fit       print the fitted slope/intercept and fidelity stats
//	lsktable -samples   print the raw simulated samples
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/keff"
	"repro/internal/tech"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lsktable: ")
	fit := flag.Bool("fit", false, "print fitted slope/intercept instead of the table")
	samples := flag.Bool("samples", false, "print raw (pattern, length, LSK, noise) samples")
	entries := flag.Int("entries", 100, "number of table entries")
	flag.Parse()

	// keff.BuildConfig would build a zero size at its 100-entry default,
	// so the flag is checked here.
	if *entries < 2 {
		log.Fatalf("-entries %d: a table needs at least 2 entries", *entries)
	}
	cfg := keff.BuildConfig{Tech: tech.Default(), Entries: *entries}
	switch {
	case *samples || *fit:
		ss, err := keff.CollectSamples(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *samples {
			fmt.Printf("%-10s %8s %12s %10s\n", "pattern", "len(mm)", "LSK(um·K)", "noise(V)")
			for _, s := range ss {
				fmt.Printf("%-10s %8.2f %12.1f %10.4f\n", s.Pattern, s.Length*1e3, s.LSK, s.Noise)
			}
		}
		if *fit {
			slope, intercept, err := keff.FitLinear(ss)
			if err != nil {
				log.Fatal(err)
			}
			rho := keff.RankCorrelation(ss)
			fmt.Printf("samples          %d\n", len(ss))
			fmt.Printf("slope            %.6g V per um·K\n", slope)
			fmt.Printf("intercept        %.6g V\n", intercept)
			fmt.Printf("rank correlation %.4f\n", rho)
			fmt.Printf("\n// paste into internal/keff/table.go:\n")
			fmt.Printf("defaultSlope     = %.3g\n", slope)
			fmt.Printf("defaultIntercept = %.3g\n", intercept)
		}
	default:
		table, err := keff.BuildTable(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12s %10s\n", "LSK(um·K)", "V")
		for i := 0; i < table.Len(); i++ {
			fmt.Printf("%12.2f %10.4f\n", table.LSK[i], table.V[i])
		}
	}
	_ = os.Stdout.Sync()
}
