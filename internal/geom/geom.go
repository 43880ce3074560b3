// Package geom provides the small set of planar geometry primitives used
// throughout the router: integer grid points, rectangles, Manhattan
// distances, and half-perimeter wirelength (HPWL) over point sets.
//
// Coordinates are integer region indices unless a function explicitly says
// otherwise; physical micron coordinates are represented with Micron.
package geom

import "fmt"

// Point is a location on the routing-region grid (column x, row y).
type Point struct {
	X, Y int
}

// String returns "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Manhattan returns the L1 distance between p and q in grid units.
func (p Point) Manhattan(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// Rect is an inclusive axis-aligned rectangle of grid cells:
// it contains every Point q with MinX <= q.X <= MaxX and MinY <= q.Y <= MaxY.
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// RectFromPoints returns the bounding box of pts.
// It panics if pts is empty: a bounding box of nothing is a programming error.
func RectFromPoints(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints of empty slice")
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		if p.X < r.MinX {
			r.MinX = p.X
		}
		if p.X > r.MaxX {
			r.MaxX = p.X
		}
		if p.Y < r.MinY {
			r.MinY = p.Y
		}
		if p.Y > r.MaxY {
			r.MaxY = p.Y
		}
	}
	return r
}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the number of columns covered by r.
func (r Rect) Width() int { return r.MaxX - r.MinX + 1 }

// Height returns the number of rows covered by r.
func (r Rect) Height() int { return r.MaxY - r.MinY + 1 }

// Cells returns Width*Height, the number of grid cells in r.
func (r Rect) Cells() int { return r.Width() * r.Height() }

// HalfPerimeter returns (Width-1)+(Height-1), the half-perimeter span of r in
// grid edges. A degenerate single-cell rectangle has half-perimeter 0.
func (r Rect) HalfPerimeter() int { return (r.Width() - 1) + (r.Height() - 1) }

// Intersects reports whether r and s share at least one cell.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// String returns "[minX,minY..maxX,maxY]".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d..%d,%d]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// HPWL returns the half-perimeter wirelength of pts in grid edges.
// HPWL is the standard lower bound on rectilinear Steiner tree length and is
// exact for nets with at most three pins.
func HPWL(pts []Point) int {
	if len(pts) < 2 {
		return 0
	}
	return RectFromPoints(pts).HalfPerimeter()
}

// Micron is a physical length in micrometers. Chip dimensions, wirelengths
// and region sizes are expressed in Micron.
type Micron float64

// MicronPoint is a physical placement location in microns.
type MicronPoint struct {
	X, Y Micron
}

// Manhattan returns the L1 distance between p and q in microns.
func (p MicronPoint) Manhattan(q MicronPoint) Micron {
	return absM(p.X-q.X) + absM(p.Y-q.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func absM(x Micron) Micron {
	if x < 0 {
		return -x
	}
	return x
}
