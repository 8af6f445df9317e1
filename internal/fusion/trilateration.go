package fusion

import (
	"errors"
	"math"

	"innercircle/internal/geo"
)

// ErrDegenerate is returned when the three anchors are (nearly) collinear,
// which makes the trilateration system singular.
var ErrDegenerate = errors.New("fusion: degenerate anchor geometry")

// Trilaterate estimates the position of a target from three anchor
// positions and the measured distances to the target, by linearizing the
// three circle equations (subtracting the first from the other two) and
// solving the resulting 2×2 system. This is step (2) of the paper's local
// localization pipeline (§5.2): each inner-circle triple (u_i, d_i)
// produces one candidate target estimate, which the FT-cluster algorithm
// then filters.
func Trilaterate(a1, a2, a3 geo.Point, d1, d2, d3 float64) (geo.Point, error) {
	if d1 < 0 || d2 < 0 || d3 < 0 {
		return geo.Point{}, errors.New("fusion: negative distance")
	}
	// ‖x−a1‖² = d1², ‖x−a2‖² = d2², ‖x−a3‖² = d3².
	// (2) − (1):  2(a1−a2)·x = d2² − d1² + ‖a1‖² − ‖a2‖²
	// (3) − (1):  2(a1−a3)·x = d3² − d1² + ‖a1‖² − ‖a3‖²
	ax := 2 * (a1.X - a2.X)
	ay := 2 * (a1.Y - a2.Y)
	b1 := float64(d2*d2) - float64(d1*d1) + float64(a1.X*a1.X) + float64(a1.Y*a1.Y) - float64(a2.X*a2.X) - float64(a2.Y*a2.Y)
	cx := 2 * (a1.X - a3.X)
	cy := 2 * (a1.Y - a3.Y)
	b2 := float64(d3*d3) - float64(d1*d1) + float64(a1.X*a1.X) + float64(a1.Y*a1.Y) - float64(a3.X*a3.X) - float64(a3.Y*a3.Y)

	det := float64(ax*cy) - float64(ay*cx)
	// Scale-aware singularity test: compare the determinant against the
	// magnitude of the coefficients.
	norm := math.Max(math.Abs(ax)+math.Abs(ay), math.Abs(cx)+math.Abs(cy))
	if math.Abs(det) <= float64(1e-9*norm*norm)+1e-12 {
		return geo.Point{}, ErrDegenerate
	}
	return geo.Point{
		X: (float64(b1*cy) - float64(b2*ay)) / det,
		Y: (float64(ax*b2) - float64(cx*b1)) / det,
	}, nil
}

// TrilaterateAll enumerates anchor triples and returns every candidate
// estimate that has non-degenerate geometry. anchors and dists must have
// equal length >= 3. maxTriples caps the enumeration (0 = no cap); the
// paper filters "3L estimates", i.e. a small multiple of the circle size.
func TrilaterateAll(anchors []geo.Point, dists []float64, maxTriples int) []geo.Point {
	n := len(anchors)
	if len(dists) != n || n < 3 {
		return nil
	}
	// Size the output once, for every triple the loop may visit: C(n, 3),
	// or maxTriples when that is fewer. C(n, 3) is formed in float64: as
	// an int it overflows on 32-bit ports from n ≈ 1 300.
	size := float64(n) * float64(n-1) * float64(n-2) / 6
	if maxTriples > 0 && float64(maxTriples) < size {
		size = float64(maxTriples)
	}
	out := make([]geo.Point, 0, int(size))
	count := 0
	for i := 0; i < n-2; i++ {
		for j := i + 1; j < n-1; j++ {
			for k := j + 1; k < n; k++ {
				if maxTriples > 0 && count >= maxTriples {
					return out
				}
				count++
				p, err := Trilaterate(anchors[i], anchors[j], anchors[k], dists[i], dists[j], dists[k])
				if err != nil {
					continue
				}
				out = append(out, p)
			}
		}
	}
	return out
}
