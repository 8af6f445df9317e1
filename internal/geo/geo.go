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
func (p Point) Scale(s float64) Point { return Point{float64(p.X * s), float64(p.Y * s)} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return hypot(p.X-q.X, p.Y-q.Y) }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return hypot(p.X, p.Y) }

// hypot is math.Hypot as amd64 computes it (math/hypot_amd64.s):
// max·√(1+(min/max)²) with every step rounded. math.Hypot's pure-Go
// fallback, which the other ports run, leaves 1+q*q to a compiler that may
// fuse it, so distances would depend on the port.
func hypot(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	switch {
	case math.IsInf(p, 1) || math.IsInf(q, 1):
		return math.Inf(1)
	case math.IsNaN(p) || math.IsNaN(q):
		return math.NaN()
	}
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return 0
	}
	q = q / p
	// The outer conversion keeps an inlined call from fusing the last
	// product into a caller's sum.
	return float64(p * math.Sqrt(1+float64(q*q)))
}

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
