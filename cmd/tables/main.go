// Command tables regenerates the paper's evaluation tables (Tables 1–3 of
// Ma & He, DAC'02) by running the three flows — ID+NO, iSINO, GSINO — over
// the benchmark circuits at both sensitivity rates, and prints measured
// numbers next to the published ones.
//
// The circuits × rates × flows grid runs on the cross-chip batch scheduler
// (internal/sched): -jobs cells run concurrently and -workers engine
// workers split evenly between them.
// Tables and CSV are byte-identical at every -jobs/-workers setting;
// -jobs 1 is the serial path.
//
// Usage:
//
//	tables                         # all circuits, scale 4, serial
//	tables -jobs 4                 # four cells in flight
//	tables -circuits ibm01,ibm02   # a subset
//	tables -scale 1                # full-scale (paper-comparable, slow)
//	tables -csv results.csv        # also dump raw outcomes
//	tables -jobs 4 -trace b.json   # Chrome trace of the batch (Perfetto)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/ibm"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	circuits := flag.String("circuits", "ibm01,ibm02,ibm03,ibm04,ibm05,ibm06", "circuits to run")
	scale := flag.Int("scale", 4, "benchmark scale divisor (1 = full, paper-comparable)")
	seed := flag.Int64("seed", 1, "benchmark generation seed")
	csvPath := flag.String("csv", "", "also write raw outcomes to this CSV file")
	jobs := flag.Int("jobs", 1, "flow cells run concurrently on the batch scheduler (0 = one per CPU); output is identical at any setting")
	artifacts := flag.Bool("artifacts", true, "share routed Phase I artifacts across cells (each circuit x rate routes at most twice); output is identical either way")
	artifactDir := flag.String("artifact-dir", "", "persist routed artifacts to this directory and warm-start from it across runs (corrupt or version-skewed files are recomputed; requires -artifacts)")
	workers := flag.Int("workers", 0, "total engine-worker budget, split across concurrent cells (0 = one per CPU); results are identical at any setting")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the batch (chrome://tracing, Perfetto); output is identical with or without")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.Parse()

	// Check the counts and open every output before the first cell runs,
	// so a bad flag or path fails with nothing printed.
	if *jobs < 0 {
		log.Fatalf("-jobs %d is negative (0 selects one per CPU)", *jobs)
	}
	if *workers < 0 {
		log.Fatalf("-workers %d is negative (0 selects one per CPU)", *workers)
	}
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		csvFile = f
	}
	var tracer *obs.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tracer, traceFile = obs.New(), f
	}
	if *pprofAddr != "" {
		addr, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pprof listening on http://%s/debug/pprof/", addr)
	}

	cells, err := buildCells(*circuits, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}

	// All progress lines go through one Console: OnStart fires concurrently
	// from runner goroutines while the emitter serializes OnResult, so raw
	// Fprintf calls on os.Stderr could tear mid-line. The Console makes each
	// line one atomic write.
	console := obs.NewConsole(os.Stderr)
	set := report.NewSet()
	var store *artifact.Store
	if *artifacts {
		store = artifact.NewStore(0)
		if *artifactDir != "" {
			disk, err := artifact.NewDiskStore(*artifactDir, tracer)
			if err != nil {
				log.Fatal(err)
			}
			store.WithDisk(disk)
		}
	} else if *artifactDir != "" {
		log.Fatal("-artifact-dir requires -artifacts")
	}
	cfg := sched.Config{
		Jobs:      *jobs,
		Workers:   *workers,
		Artifacts: store,
		Trace:     tracer,
		OnResult: func(r sched.Result) {
			if r.Err != nil {
				return // reported once by FirstError below
			}
			obs.PublishSnapshot(r)
			console.Printf("%s\n", r.Summary(len(cells)))
			set.Add(r.Outcome)
		},
	}
	if *jobs != 1 {
		cfg.OnStart = func(index, inFlight int) {
			console.Printf("cell %d/%d start (%d in flight)\n", index+1, len(cells), inFlight)
		}
	}
	results, err := sched.Run(context.Background(), cells, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sched.FirstError(results); err != nil {
		log.Fatal(err)
	}
	if store != nil {
		s := store.Stats()
		console.Printf("route artifacts: %d hits, %d misses, %d evictions\n", s.Hits, s.Misses, s.Evictions)
		if d := s.Disk; d.Total() > 0 {
			console.Printf("artifact disk: %d hits, %d misses, %d corrupt, %d writes (%d write errors)\n",
				d.Hits, d.Misses, d.Corrupt, d.Writes, d.WriteErrors)
		}
	}

	if err := set.Tables(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if csvFile != nil {
		if err := set.CSV(csvFile); err != nil {
			csvFile.Close()
			log.Fatal(err)
		}
		if err := csvFile.Close(); err != nil {
			log.Fatal(err)
		}
		console.Printf("wrote %s\n", *csvPath)
	}

	if tracer != nil {
		err := tracer.WriteJSON(traceFile)
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		console.Printf("wrote trace to %s\n", *tracePath)
	}
}

// buildCells returns the batch for a comma-separated circuit list: each
// circuit at sensitivity rates 30% and 50%, each (circuit, rate) under the
// ID+NO, iSINO and GSINO flows. A circuit named twice is an error, found
// before any circuit is generated: the tables hold one row per circuit,
// so its second set of cells would only redo the work.
func buildCells(circuits string, scale int, seed int64) ([]sched.Cell, error) {
	names := strings.Split(circuits, ",")
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if seen[names[i]] {
			return nil, fmt.Errorf("circuit %q listed twice in -circuits", names[i])
		}
		seen[names[i]] = true
	}
	var cells []sched.Cell
	for _, name := range names {
		profile, err := ibm.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		for _, rate := range []float64{0.3, 0.5} {
			ckt, err := ibm.Generate(profile, ibm.Options{Seed: seed, Scale: scale, SensRate: rate})
			if err != nil {
				return nil, err
			}
			// One design shared by the three flows of this (circuit, rate):
			// flows are read-only on it, so concurrent cells can share.
			design := &core.Design{Name: profile.Name, Nets: ckt.Nets, Grid: ckt.Grid, Rate: rate}
			for _, f := range []core.Flow{core.FlowIDNO, core.FlowISINO, core.FlowGSINO} {
				cells = append(cells, sched.Cell{Design: design, Flow: f, Params: core.Params{}})
			}
		}
	}
	return cells, nil
}
