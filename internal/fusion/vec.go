// Package fusion implements the paper's fault-tolerant value-fusion
// machinery (§4.3): the proposed Fault-Tolerant Cluster algorithm (Fig. 4),
// the classic fault-tolerant mean baseline it is compared against (Dolev et
// al., approximate agreement), the trilateration step of the sensor
// localization pipeline (§5.2), and the worst-case error analysis of §4.3.
package fusion

import (
	"errors"
	"fmt"
	"math"
)

// Vec is an n-dimensional observation. The sensor scenario fuses scalar
// energies (dim 1), timestamps (dim 1), and positions (dim 2).
type Vec []float64

// ErrDimMismatch is returned when observations have inconsistent dimension.
var ErrDimMismatch = errors.New("fusion: dimension mismatch")

// V1 returns a 1-dimensional vector.
func V1(x float64) Vec { return Vec{x} }

// V2 returns a 2-dimensional vector.
func V2(x, y float64) Vec { return Vec{x, y} }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 {
	var sum float64
	for i := range v {
		d := v[i] - w[i]
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// add accumulates w into v in place.
func (v Vec) add(w Vec) {
	for i := range v {
		v[i] += w[i]
	}
}

// sub removes w from v in place.
func (v Vec) sub(w Vec) {
	for i := range v {
		v[i] -= w[i]
	}
}

// scale multiplies v by s in place.
func (v Vec) scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Centroid returns the arithmetic mean of the observations.
func Centroid(points []Vec) (Vec, error) {
	if len(points) == 0 {
		return nil, errors.New("fusion: centroid of empty set")
	}
	dim := len(points[0])
	sum := make(Vec, dim)
	for _, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(p), dim)
		}
		sum.add(p)
	}
	sum.scale(1 / float64(len(points)))
	return sum, nil
}
