// Package geo provides the 2-D geometry used throughout the simulator:
// node positions, distances, bounding regions, and the centroid machinery
// shared with the fault-tolerant fusion algorithms.
package geo

import (
	"fmt"
	"math"
)

// Point is a position (or any 2-D observation) in metres.
type Point struct {
	X float64
	Y float64
}

// String formats the point with centimetre precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Centroid returns the arithmetic mean of the points. It returns the zero
// point for an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sum Point
	for _, p := range pts {
		sum = sum.Add(p)
	}
	return sum.Scale(1 / float64(len(pts)))
}

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
type Rect struct {
	MinX float64
	MinY float64
	MaxX float64
	MaxY float64
}

// Square returns the square region [0, side] × [0, side], the deployment
// region shape used by both of the paper's experiments.
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Clamp returns the point in r nearest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}
