package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
)

// Example routes a small deterministic design with the full GSINO flow —
// sharded Phase I routing, per-region SINO, local refinement — and checks
// the paper's headline property: no net exceeds its crosstalk budget.
// examples/quickstart is the narrated, runnable version of this snippet.
func Example() {
	g, err := grid.New(6, 6, 100, 100, 12, 12)
	if err != nil {
		log.Fatal(err)
	}
	var nets []netlist.Net
	for i := 0; i < 24; i++ {
		nets = append(nets, netlist.Net{ID: i, Pins: []netlist.Pin{
			{Loc: geom.MicronPoint{X: geom.Micron(30 + (i*83)%540), Y: geom.Micron(30 + (i*47)%540)}},
			{Loc: geom.MicronPoint{X: geom.Micron(30 + (i*131+270)%540), Y: geom.Micron(30 + (i*71+180)%540)}},
		}})
	}
	design := &core.Design{
		Name: "example",
		Nets: &netlist.Netlist{Nets: nets, Sensitivity: netlist.NewHashSensitivity(3, 0.4)},
		Grid: g,
		Rate: 0.4,
	}
	runner, err := core.NewRunner(design, core.Params{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	out, err := runner.Run(core.FlowGSINO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("violations:", out.Violations)
	fmt.Println("routed nets:", out.TotalNets)
	// Output:
	// violations: 0
	// routed nets: 24
}
