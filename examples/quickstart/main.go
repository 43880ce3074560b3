// Quickstart: route a handful of nets on a small grid with GSINO and
// inspect the result — routes, per-region SINO layouts, shields, and the
// LSK noise check.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
)

func main() {
	log.SetFlags(0)

	// An 8x8 grid of 100x100 um routing regions with 12 tracks per
	// direction in each region.
	g, err := grid.New(8, 8, 100, 100, 12, 12)
	if err != nil {
		log.Fatal(err)
	}

	// Forty 2-3 pin nets laid out deterministically across the chip.
	var nets []netlist.Net
	for i := 0; i < 40; i++ {
		x0 := geom.Micron(50 + (i*97)%700)
		y0 := geom.Micron(50 + (i*53)%700)
		x1 := geom.Micron(50 + (i*193+260)%700)
		y1 := geom.Micron(50 + (i*149+180)%700)
		pins := []netlist.Pin{
			{Loc: geom.MicronPoint{X: x0, Y: y0}},
			{Loc: geom.MicronPoint{X: x1, Y: y1}},
		}
		if i%3 == 0 {
			pins = append(pins, netlist.Pin{Loc: geom.MicronPoint{X: (x0 + x1) / 2, Y: y1}})
		}
		nets = append(nets, netlist.Net{ID: i, Name: fmt.Sprintf("n%d", i), Pins: pins})
	}

	// Every net is sensitive to a random 30% of the others.
	nl := &netlist.Netlist{
		Nets:        nets,
		Sensitivity: netlist.NewHashSensitivity(7, 0.30),
	}

	design := &core.Design{Name: "quickstart", Nets: nl, Grid: g, Rate: 0.30}
	runner, err := core.NewRunner(design, core.Params{})
	if err != nil {
		log.Fatal(err)
	}

	for _, flow := range []core.Flow{core.FlowIDNO, core.FlowGSINO} {
		out, err := runner.Run(flow)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s violations=%d/%d  avg wirelength=%.0f um  shields=%d  area=%s\n",
			out.Flow, out.Violations, out.TotalNets, float64(out.AvgWL), out.Shields, out.Area)
	}

	fmt.Println()
	fmt.Println("GSINO eliminated the RLC crosstalk violations by inserting")
	fmt.Println("shields and reordering nets inside each routing region, at a")
	fmt.Println("small area cost. Run examples/fullchip for the paper's tables.")
}
