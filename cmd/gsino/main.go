// Command gsino runs the paper's routing flows on a benchmark circuit and
// prints the evaluation metrics (violating nets, average wirelength,
// routing area).
//
// With -eco it additionally applies an ECO delta (JSON: nets to remove,
// move, or add) to the circuit and re-runs the flows on the edited design,
// re-solving Phase I incrementally against the base run's routed artifact.
// -ecofull routes the edited design from scratch instead — the output is
// byte-identical (use -notime when diffing), only slower.
//
// Usage:
//
//	gsino -circuit ibm01 -flows ID+NO,iSINO,GSINO -rate 0.3 -scale 8
//	gsino -circuit ibm01 -scale 8 -eco delta.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/ibm"
	"repro/internal/obs"
)

// maxWorkers bounds -workers: the engine allocates a worker record per
// requested worker before anything runs, so a mistyped count must fail
// here rather than exhaust memory.
const maxWorkers = 1 << 10

func main() {
	log.SetFlags(0)
	log.SetPrefix("gsino: ")
	circuit := flag.String("circuit", "ibm01", "benchmark circuit (ibm01..ibm06)")
	flows := flag.String("flows", "ID+NO,iSINO,GSINO", "comma-separated flows to run")
	rate := flag.Float64("rate", 0.30, "sensitivity rate (paper: 0.30 and 0.50)")
	scale := flag.Int("scale", 1, "divide net count and capacities by this factor")
	seed := flag.Int64("seed", 1, "benchmark generation seed")
	vth := flag.Float64("vth", 0.15, "crosstalk constraint, volts")
	verbose := flag.Bool("v", false, "print congestion and engine statistics per flow")
	congBudget := flag.Bool("congestion-budget", false, "use congestion-weighted crosstalk budgeting in GSINO (paper §5 future work)")
	workers := flag.Int("workers", 0, "engine workers for Phase I shards and Phase II/III solves (0 = one per CPU); results are identical at any setting")
	artifacts := flag.Bool("artifacts", true, "share routed Phase I artifacts across flows (identically-configured flows route once; results are identical either way)")
	artifactDir := flag.String("artifact-dir", "", "persist routed artifacts to this directory and warm-start from it across runs (corrupt or version-skewed files are recomputed; requires -artifacts)")
	ecoPath := flag.String("eco", "", "ECO delta JSON file; after the base flows, apply the delta and re-solve incrementally against the cached artifact")
	ecoFull := flag.Bool("ecofull", false, "with -eco, route the edited design from scratch instead of incrementally (CI comparison; output is byte-identical)")
	notime := flag.Bool("notime", false, "print '-' for the runtime column (stable output for byte-diffing)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run (chrome://tracing, Perfetto); results are identical with or without")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.Parse()

	if *ecoFull && *ecoPath == "" {
		log.Fatal("-ecofull requires -eco")
	}
	// Check every flag, read every input and open every output before the
	// circuit is generated, so a bad flow name, path or delta fails with
	// nothing printed. core.Params would run a zero -vth at its 0.15 V
	// default, so the threshold is checked here.
	if !(*vth > 0) || math.IsInf(*vth, 1) { // NaN fails *vth > 0
		log.Fatalf("-vth %g is not a finite positive voltage", *vth)
	}
	if *workers < 0 || *workers > maxWorkers {
		log.Fatalf("-workers %d: want a count in [0, %d] (0 selects one per CPU)", *workers, maxWorkers)
	}
	flowList, err := parseFlows(*flows)
	if err != nil {
		log.Fatal(err)
	}
	var delta artifact.Delta
	if *ecoPath != "" {
		data, err := os.ReadFile(*ecoPath)
		if err != nil {
			log.Fatal(err)
		}
		if delta, err = artifact.ParseDelta(data); err != nil {
			log.Fatal(err)
		}
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

	profile, err := ibm.ProfileByName(*circuit)
	if err != nil {
		log.Fatal(err)
	}
	ckt, err := ibm.Generate(profile, ibm.Options{Seed: *seed, Scale: *scale, SensRate: *rate})
	if err != nil {
		log.Fatal(err)
	}
	design := &core.Design{
		Name: profile.Name,
		Nets: ckt.Nets,
		Grid: ckt.Grid,
		Rate: *rate,
	}
	// Applying the delta here checks it against the design (net IDs in
	// range, no net edited twice, every pin on the chip) before any flow
	// runs; -ecofull routes the result, and the incremental runner applies
	// the delta again itself.
	var edited *core.Design
	if *ecoPath != "" {
		if edited, err = core.ApplyDelta(design, delta); err != nil {
			log.Fatal(err)
		}
	}
	params := core.Params{VThreshold: *vth, CongestionBudgeting: *congBudget, Workers: *workers, Trace: tracer}
	if *artifacts {
		store := artifact.NewStore(0)
		if *artifactDir != "" {
			disk, err := artifact.NewDiskStore(*artifactDir, tracer)
			if err != nil {
				log.Fatal(err)
			}
			store.WithDisk(disk)
		}
		params.Artifacts = store
	} else if *artifactDir != "" {
		log.Fatal("-artifact-dir requires -artifacts")
	}
	runner, err := core.NewRunner(design, params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d nets, %dx%d regions (HC=%d VC=%d), rate %.0f%%, scale %d\n",
		profile.Name, len(ckt.Nets.Nets), ckt.Grid.Cols, ckt.Grid.Rows, ckt.Grid.HC, ckt.Grid.VC,
		*rate*100, ckt.Scale)
	printColumns()
	if err := runFlows(runner, flowList, *verbose, *notime); err != nil {
		log.Fatal(err)
	}

	if *ecoPath != "" {
		var ecoRunner *core.Runner
		if *ecoFull {
			// From-scratch reference arm: same edited design, no resume.
			ecoRunner, err = core.NewRunner(edited, params)
		} else {
			ecoRunner, err = core.NewECORunner(design, delta, params)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("eco: %d removed, %d moved, %d added\n",
			len(delta.Remove), len(delta.Move), len(delta.Add))
		printColumns()
		if err := runFlows(ecoRunner, flowList, *verbose, *notime); err != nil {
			log.Fatal(err)
		}
	}

	if tracer != nil {
		err := tracer.WriteJSON(traceFile)
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote trace to %s", *tracePath)
	}
}

func printColumns() {
	fmt.Printf("%-7s %10s %8s %10s %14s %9s %8s %9s\n",
		"flow", "violations", "viol%", "avgWL(um)", "area(um x um)", "area+%", "shields", "runtime")
}

// parseFlows splits the comma-separated -flows list, rejecting any name
// that is not one of core's flows.
func parseFlows(list string) ([]core.Flow, error) {
	var flows []core.Flow
	for _, name := range strings.Split(list, ",") {
		switch f := core.Flow(strings.TrimSpace(name)); f {
		case core.FlowIDNO, core.FlowISINO, core.FlowGSINO:
			flows = append(flows, f)
		default:
			return nil, fmt.Errorf("unknown flow %q (want %s, %s or %s)", f, core.FlowIDNO, core.FlowISINO, core.FlowGSINO)
		}
	}
	return flows, nil
}

// runFlows runs the flows on one runner and prints a table row per flow.
// Area overhead is relative to the runner's own ID+NO row, so the base and
// ECO blocks are each self-contained.
func runFlows(runner *core.Runner, flows []core.Flow, verbose, notime bool) error {
	var base *core.Outcome
	for _, f := range flows {
		out, err := runner.Run(f)
		if err != nil {
			return err
		}
		if f == core.FlowIDNO {
			base = out
		}
		areaPct := "-"
		if base != nil && f != core.FlowIDNO {
			areaPct = fmt.Sprintf("%.2f%%", out.AreaOverheadPct(base))
		}
		runtime := "-"
		if !notime {
			runtime = out.Runtime.Round(1e6).String()
		}
		fmt.Printf("%-7s %10d %7.2f%% %10.1f %14s %9s %8d %9s\n",
			out.Flow, out.Violations, out.ViolationPct, float64(out.AvgWL),
			out.Area.String(), areaPct, out.Shields, runtime)
		obs.PublishSnapshot(out)
		if verbose {
			fmt.Print(out.Detail("        "))
		}
		if f == core.FlowGSINO && out.Unfixable > 0 {
			fmt.Printf("        (GSINO: %d violations unfixable at the K floor)\n", out.Unfixable)
		}
	}
	return nil
}
