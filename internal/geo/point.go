// Package geo provides the planar geometry primitives used throughout the
// HRIS reproduction: points, segments, polylines, bounding boxes, and the
// distance/projection operations the paper's definitions are built on.
//
// All coordinates are planar and expressed in meters (X grows east, Y grows
// north). Working in a local tangent plane keeps every distance computation
// exact and cheap; Projection.ToLatLon converts to WGS84 for
// interoperability with real GPS data.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the planar coordinate system, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by v.
func (p Point) Add(v Point) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparison-only callers such as nearest-neighbor
// searches.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates between p (t=0) and q (t=1).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Equal reports whether p and q are the same point to within eps meters.
func (p Point) Equal(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// Heading returns the compass-style heading in radians of the vector from p
// to q, measured counterclockwise from the positive X axis, in (-π, π].
func (p Point) Heading(q Point) float64 {
	return math.Atan2(q.Y-p.Y, q.X-p.X)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// AngleDiff returns the absolute difference between two angles in radians,
// normalized to [0, π].
func AngleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d < 0 {
		d += 2 * math.Pi
	}
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// earthRadius is the mean Earth radius in meters, used by Projection.
const earthRadius = 6371008.8

// LatLon is a WGS84 coordinate in degrees.
type LatLon struct {
	Lat, Lon float64
}

// Projection converts the local tangent plane centered at Origin to WGS84
// coordinates using an equirectangular approximation, which is accurate to
// well under GPS noise levels for city-scale extents.
type Projection struct {
	Origin LatLon
	cosLat float64
}

// NewProjection returns a Projection centered at origin.
func NewProjection(origin LatLon) *Projection {
	return &Projection{Origin: origin, cosLat: math.Cos(origin.Lat * math.Pi / 180)}
}

// ToLatLon converts planar meters back to WGS84.
func (pr *Projection) ToLatLon(p Point) LatLon {
	return LatLon{
		Lat: pr.Origin.Lat + p.Y/earthRadius*180/math.Pi,
		Lon: pr.Origin.Lon + p.X/(earthRadius*pr.cosLat)*180/math.Pi,
	}
}
