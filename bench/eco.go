package main

import (
	"fmt"
	"math/rand"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// ecoStream returns n seeded ECO deltas against base. Each delta makes one
// to three edits — move a net, add a net, or remove one — at local,
// in-chip locations, the way an engineering change touches a placed
// design. The stream is valid by construction: a delta never edits a net
// twice, every pin lies inside the chip, add names are unique across the
// stream, moves shift every pin by at least one routing region (so the
// router sees a real edit), and removals pick nets with a sink (so the
// stub they collapse to differs from the net). Apply never fails on them.
func ecoStream(seed int64, base *core.Design, n int) []artifact.Delta {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7919))
	g := base.Grid
	nets := base.Nets.Nets
	chipW, chipH := float64(g.ChipW()), float64(g.ChipH())
	cellW, cellH := float64(g.CellW), float64(g.CellH)

	// inChip keeps a coordinate strictly inside [0, size).
	inChip := func(v, size float64) float64 { return min(max(v, 0), size*(1-1e-9)) }
	// shift is a nonzero move of one or two regions that stays on the chip
	// from where: it flips direction when the first choice leaves the chip.
	shift := func(where, cell, size float64) float64 {
		d := float64(1+rng.Intn(2)) * cell
		if rng.Intn(2) == 0 {
			d = -d
		}
		if where+d < 0 || where+d >= size {
			d = -d
		}
		return d
	}

	deltas := make([]artifact.Delta, n)
	for k := range deltas {
		var d artifact.Delta
		used := map[int]bool{}
		pick := func() int {
			for {
				id := rng.Intn(len(nets))
				if !used[id] && len(nets[id].Pins) > 1 {
					used[id] = true
					return id
				}
			}
		}
		edits := 1 + rng.Intn(3)
		for e := 0; e < edits; e++ {
			switch rng.Intn(3) {
			case 0:
				id := pick()
				src := nets[id].Pins[0].Loc
				dx := shift(float64(src.X), cellW, chipW)
				dy := shift(float64(src.Y), cellH, chipH)
				pins := make([]netlist.Pin, len(nets[id].Pins))
				for j, p := range nets[id].Pins {
					pins[j] = pin(inChip(float64(p.Loc.X)+dx, chipW), inChip(float64(p.Loc.Y)+dy, chipH))
				}
				d.Move = append(d.Move, artifact.Move{ID: id, Pins: pins})
			case 1:
				cx, cy := rng.Float64()*chipW, rng.Float64()*chipH
				pins := make([]netlist.Pin, 2+rng.Intn(3))
				for j := range pins {
					pins[j] = pin(inChip(cx+(rng.Float64()*6-3)*cellW, chipW), inChip(cy+(rng.Float64()*6-3)*cellH, chipH))
				}
				d.Add = append(d.Add, netlist.Net{Name: fmt.Sprintf("eco%d.%d", k, e), Pins: pins})
			default:
				d.Remove = append(d.Remove, pick())
			}
		}
		deltas[k] = d
	}
	return deltas
}

func pin(x, y float64) netlist.Pin {
	return netlist.Pin{Loc: geom.MicronPoint{X: geom.Micron(x), Y: geom.Micron(y)}}
}
