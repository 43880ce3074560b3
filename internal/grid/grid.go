// Package grid models the routing fabric of the paper's §2.1: a chip whose
// routing layers are divided by pre-routed power/ground wires into a regular
// array of routing regions, each with a horizontal and a vertical track
// capacity. It also implements the routing-area accounting of §4 ("the
// product of the maximum row and column lengths"): regions whose track
// demand exceeds capacity expand the chip.
package grid

import (
	"fmt"

	"repro/internal/geom"
)

// Grid is the array of routing regions covering the chip.
type Grid struct {
	Cols, Rows   int
	CellW, CellH geom.Micron // physical region dimensions
	HC, VC       int         // horizontal / vertical track capacity per region
}

// New validates the parameters and returns a Grid.
func New(cols, rows int, cellW, cellH geom.Micron, hc, vc int) (*Grid, error) {
	switch {
	case cols <= 0 || rows <= 0:
		return nil, fmt.Errorf("grid: dimensions must be positive, got %dx%d", cols, rows)
	case cellW <= 0 || cellH <= 0:
		return nil, fmt.Errorf("grid: cell size must be positive, got %gx%g", cellW, cellH)
	case hc <= 0 || vc <= 0:
		return nil, fmt.Errorf("grid: capacities must be positive, got HC=%d VC=%d", hc, vc)
	}
	return &Grid{Cols: cols, Rows: rows, CellW: cellW, CellH: cellH, HC: hc, VC: vc}, nil
}

// NumRegions returns Cols*Rows.
func (g *Grid) NumRegions() int { return g.Cols * g.Rows }

// Bounds returns the grid's region-index bounding rectangle.
func (g *Grid) Bounds() geom.Rect {
	return geom.Rect{MinX: 0, MinY: 0, MaxX: g.Cols - 1, MaxY: g.Rows - 1}
}

// Index maps a region coordinate to a dense index.
func (g *Grid) Index(p geom.Point) int {
	if !g.Bounds().Contains(p) {
		panic(fmt.Sprintf("grid: region %v outside %dx%d grid", p, g.Cols, g.Rows))
	}
	return p.Y*g.Cols + p.X
}

// RegionOf maps a physical placement location to the region containing it.
// Locations on or beyond the chip boundary clamp to the edge regions.
func (g *Grid) RegionOf(p geom.MicronPoint) geom.Point {
	x := int(p.X / g.CellW)
	y := int(p.Y / g.CellH)
	if x < 0 {
		x = 0
	}
	if x >= g.Cols {
		x = g.Cols - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.Rows {
		y = g.Rows - 1
	}
	return geom.Point{X: x, Y: y}
}

// ChipW returns the nominal chip width (no expansion).
func (g *Grid) ChipW() geom.Micron { return geom.Micron(g.Cols) * g.CellW }

// ChipH returns the nominal chip height (no expansion).
func (g *Grid) ChipH() geom.Micron { return geom.Micron(g.Rows) * g.CellH }

// Usage records per-region track demand in each direction, including
// shields. H[i] counts horizontal tracks used in region i; V[i] vertical.
type Usage struct {
	H, V []float64
}

// NewUsage returns zeroed usage for g.
func NewUsage(g *Grid) *Usage {
	return &Usage{H: make([]float64, g.NumRegions()), V: make([]float64, g.NumRegions())}
}

// HDensity returns HU/HC for region index i.
func (g *Grid) HDensity(u *Usage, i int) float64 { return u.H[i] / float64(g.HC) }

// VDensity returns VU/VC for region index i.
func (g *Grid) VDensity(u *Usage, i int) float64 { return u.V[i] / float64(g.VC) }

// Area is a chip extent in microns.
type Area struct {
	W, H geom.Micron
}

// Product returns W·H in µm².
func (a Area) Product() float64 { return float64(a.W) * float64(a.H) }

// String formats like the paper's Table 3: "1533 x 1824".
func (a Area) String() string { return fmt.Sprintf("%.0f x %.0f", float64(a.W), float64(a.H)) }

// RoutingArea implements the paper's routing-area model. Horizontal tracks
// stack vertically inside a region, so a region needing more horizontal
// tracks than HC grows in height, and the row it sits in grows with it (a
// row is as tall as its worst region). Vertical tracks stack horizontally
// and expand column widths likewise. The chip extent is the sum of expanded
// row heights by the sum of expanded column widths — "the product of the
// maximum row and column lengths".
func (g *Grid) RoutingArea(u *Usage) Area {
	var height geom.Micron
	for y := 0; y < g.Rows; y++ {
		worst := 1.0
		for x := 0; x < g.Cols; x++ {
			if f := u.H[y*g.Cols+x] / float64(g.HC); f > worst {
				worst = f
			}
		}
		height += geom.Micron(worst) * g.CellH
	}
	var width geom.Micron
	for x := 0; x < g.Cols; x++ {
		worst := 1.0
		for y := 0; y < g.Rows; y++ {
			if f := u.V[y*g.Cols+x] / float64(g.VC); f > worst {
				worst = f
			}
		}
		width += geom.Micron(worst) * g.CellW
	}
	return Area{W: width, H: height}
}

// CongestionStats summarizes a usage field.
type CongestionStats struct {
	MaxH, MaxV  float64 // worst densities
	OverflowedH int     // regions with HU > HC
	OverflowedV int
	TotalH      float64 // Σ HU
	TotalV      float64
	AvgHDensity float64
	AvgVDensity float64
}

// Stats computes congestion statistics for u.
func (g *Grid) Stats(u *Usage) CongestionStats {
	var s CongestionStats
	n := g.NumRegions()
	for i := 0; i < n; i++ {
		h, v := g.HDensity(u, i), g.VDensity(u, i)
		if h > s.MaxH {
			s.MaxH = h
		}
		if v > s.MaxV {
			s.MaxV = v
		}
		if u.H[i] > float64(g.HC) {
			s.OverflowedH++
		}
		if u.V[i] > float64(g.VC) {
			s.OverflowedV++
		}
		s.TotalH += u.H[i]
		s.TotalV += u.V[i]
	}
	s.AvgHDensity = s.TotalH / float64(n) / float64(g.HC)
	s.AvgVDensity = s.TotalV / float64(n) / float64(g.VC)
	return s
}
