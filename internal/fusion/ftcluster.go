package fusion

import (
	"errors"
	"fmt"
)

// FTClusterResult reports the outcome of the fault-tolerant cluster
// algorithm.
type FTClusterResult struct {
	// Estimate is Θ̂_FT, the centroid of the fault-tolerant cluster.
	Estimate Vec
	// Kept holds the indices (into the input slice) of the observations in
	// the fault-tolerant cluster C*_P.
	Kept []int
	// Removed holds the indices excluded as likely faulty/malicious, in
	// removal order.
	Removed []int
}

// FTCluster runs the paper's Fault-Tolerant Cluster algorithm (Fig. 4).
// Starting from all L observations, it repeatedly computes each point's
// leave-one-out distance d_i = ‖p_i − centroid(C \ p_i)‖ and removes the
// farthest point whose distance exceeds the threshold eta, stopping when no
// point exceeds eta or only two points remain (the |C| > 2 guard of the
// pseudocode). The estimate is the centroid of the surviving cluster.
//
// eta must be chosen so that two correct observations are farther apart
// than eta only with negligible probability (the paper sets it from the
// noise standard deviation).
func FTCluster(points []Vec, eta float64) (FTClusterResult, error) {
	if len(points) == 0 {
		return FTClusterResult{}, errors.New("fusion: no observations")
	}
	if eta < 0 {
		return FTClusterResult{}, fmt.Errorf("fusion: negative threshold %v", eta)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return FTClusterResult{}, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimMismatch, i, len(p), dim)
		}
	}

	kept := make([]int, len(points))
	for i := range kept {
		kept[i] = i
	}
	var removed []int

	// Maintain the running coordinate sum so each leave-one-out centroid
	// is O(dim) instead of O(n·dim); every centroid is built in the one
	// scratch vector loo, so a pass allocates nothing.
	buf := make(Vec, 2*dim)
	sum, loo := buf[:dim:dim], buf[dim:]
	for _, p := range points {
		sum.add(p)
	}

	change := len(kept) > 2
	for change {
		change = false
		// Find the point with maximal leave-one-out distance.
		worst := -1
		var worstDist float64
		for pos, idx := range kept {
			p := points[idx]
			copy(loo, sum)
			loo.sub(p)
			loo.scale(1 / float64(len(kept)-1))
			d := p.Dist(loo)
			if worst == -1 || d > worstDist {
				worst, worstDist = pos, d
			}
		}
		if worst >= 0 && worstDist > eta {
			idx := kept[worst]
			sum.sub(points[idx])
			kept = append(kept[:worst], kept[worst+1:]...)
			removed = append(removed, idx)
			change = len(kept) > 2
		}
	}

	sum.scale(1 / float64(len(kept)))
	return FTClusterResult{Estimate: sum, Kept: kept, Removed: removed}, nil
}

// WorstCaseRemovalSeparation returns the minimum ratio δF/δC that
// guarantees FTCluster removes only faulty points, per §4.3 result (1):
// with F faulty among N total, only faulty points are removed when
// δF > δC / (1 − 2F/N), where δC and δF are the maximum distances of
// correct and faulty points from the correct-only centroid.
func WorstCaseRemovalSeparation(f, n int) float64 {
	if n <= 0 || 2*f >= n {
		return 0 // the guarantee does not apply (F >= N/2)
	}
	return 1 / (1 - 2*float64(f)/float64(n))
}

// WorstCaseError returns E*, the maximum estimation error adversarial
// observations can add (per §4.3 result (2)): all F faulty points cluster
// at distance δF* = δC/(1−2F/N) from the correct centroid, contributing
// E* = (F/N)·δF*.
func WorstCaseError(f, n int, deltaC float64) float64 {
	if n <= 0 || 2*f >= n {
		return 0
	}
	deltaFStar := deltaC / (1 - 2*float64(f)/float64(n))
	return float64(f) / float64(n) * deltaFStar
}
