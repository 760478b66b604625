package geo

import "math"

// BBox is an axis-aligned bounding box. An empty box has Min > Max.
type BBox struct {
	Min, Max Point
}

// EmptyBBox returns a box that contains nothing and extends to anything.
func EmptyBBox() BBox {
	return BBox{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// BBoxAround returns the square box of half-width r centered at p — the
// bounding box of a radius-r range query.
func BBoxAround(p Point, r float64) BBox {
	return BBox{Min: Point{p.X - r, p.Y - r}, Max: Point{p.X + r, p.Y + r}}
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool { return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y }

// Contains reports whether p lies inside or on the boundary of b.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Intersects reports whether b and o overlap (boundary contact counts).
func (b BBox) Intersects(o BBox) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// ExtendPoint returns the smallest box containing both b and p.
func (b BBox) ExtendPoint(p Point) BBox {
	return BBox{
		Min: Point{min(b.Min.X, p.X), min(b.Min.Y, p.Y)},
		Max: Point{max(b.Max.X, p.X), max(b.Max.Y, p.Y)},
	}
}

// Area returns the area of the box in square meters (0 if empty).
func (b BBox) Area() float64 {
	if b.IsEmpty() {
		return 0
	}
	return (b.Max.X - b.Min.X) * (b.Max.Y - b.Min.Y)
}

// Margin returns the half-perimeter of the box, used by R*-style splits.
func (b BBox) Margin() float64 {
	if b.IsEmpty() {
		return 0
	}
	return (b.Max.X - b.Min.X) + (b.Max.Y - b.Min.Y)
}

// Center returns the center point of the box.
func (b BBox) Center() Point {
	return Point{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2}
}

// DistToPoint returns the minimum distance from p to the box (0 if inside).
func (b BBox) DistToPoint(p Point) float64 {
	dx := max(0, b.Min.X-p.X, p.X-b.Max.X)
	dy := max(0, b.Min.Y-p.Y, p.Y-b.Max.Y)
	return math.Hypot(dx, dy)
}
