package scenario

import (
	"math"
	"slices"
	"testing"

	"innercircle/internal/geo"
)

// partitionPlacements builds per-column node placements for StripePartition
// property tests: counts[c] nodes in grid column c (column width = rangeM),
// spread across the column's interior.
func partitionPlacements(counts []int, rangeM float64) []geo.Point {
	var pts []geo.Point
	for c, n := range counts {
		for i := 0; i < n; i++ {
			frac := (float64(i) + 0.5) / float64(n)
			pts = append(pts, geo.Point{
				X: (float64(c) + 0.1 + 0.8*frac) * rangeM,
				Y: float64(i%7) * 10,
			})
		}
	}
	return pts
}

// shardLoads folds a partition back into per-shard node counts.
func shardLoads(pts []geo.Point, ownerOf func(geo.Point) int, shards int) []int {
	loads := make([]int, shards)
	for _, p := range pts {
		loads[ownerOf(p)]++
	}
	return loads
}

// checkAdjacency asserts the stripe invariants that make cross-shard radio
// traffic sound: column ownership is non-decreasing left to right with
// steps of at most one shard, every shard owns at least one column, and
// the border classifier flags exactly the nodes whose one-range reach
// crosses an ownership boundary.
func checkAdjacency(t *testing.T, counts []int, rangeM float64, ownerOf func(geo.Point) int, borderOf func(geo.Point) bool, shards int) {
	t.Helper()
	prev := 0
	seen := make([]bool, shards)
	for c := range counts {
		probe := geo.Point{X: (float64(c) + 0.5) * rangeM}
		own := ownerOf(probe)
		if own < 0 || own >= shards {
			t.Fatalf("column %d owned by shard %d, outside [0,%d)", c, own, shards)
		}
		if own < prev || own > prev+1 {
			t.Fatalf("column %d jumps from shard %d to shard %d (|Δcol|<=1 adjacency broken)", c, prev, own)
		}
		seen[own] = true
		prev = own
		left := ownerOf(geo.Point{X: probe.X - rangeM})
		right := ownerOf(geo.Point{X: probe.X + rangeM})
		if wantBorder := left != own || right != own; borderOf(probe) != wantBorder {
			t.Fatalf("column %d: borderOf = %v, want %v (owners %d/%d/%d)", c, borderOf(probe), wantBorder, left, own, right)
		}
	}
	if ownerOf(geo.Point{X: 0.5 * rangeM}) != 0 {
		t.Fatal("leftmost column not owned by shard 0")
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("shard %d owns no column", s)
		}
	}
}

// TestStripePartitionAdjacencyUnderSkew: the weighted partitioner must keep
// the adjacency and coverage invariants for adversarial density profiles —
// the invariants the horizon protocol's soundness rests on.
func TestStripePartitionAdjacencyUnderSkew(t *testing.T) {
	const rangeM = 100.0
	profiles := map[string][]int{
		"uniform":     {8, 8, 8, 8, 8, 8, 8, 8},
		"one-hot":     {1, 1, 1, 400, 1, 1, 1, 1},
		"geometric":   {1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
		"half-empty":  {200, 180, 220, 190, 1, 1, 1, 1},
		"edge-heavy":  {500, 1, 1, 1, 1, 1, 1, 500},
		"sparse-tail": {50, 50, 50, 50, 50, 1, 1, 1, 1, 1, 1, 1},
	}
	for name, counts := range profiles {
		for _, shards := range []int{2, 3, 4, 6} {
			pts := partitionPlacements(counts, rangeM)
			ownerOf, borderOf, eff := StripePartition(pts, rangeM, shards)
			if eff != shards {
				t.Fatalf("%s shards=%d: effective = %d, want %d (cols=%d)", name, shards, eff, shards, len(counts))
			}
			checkAdjacency(t, counts, rangeM, ownerOf, borderOf, eff)
		}
	}
}

// TestStripePartitionBalanceBound pins the load guarantee: under any
// density the heaviest shard carries at most total/shards plus one
// column's worth of nodes — the straggler bound that makes horizon
// progress proportional instead of gated by the densest stripe.
func TestStripePartitionBalanceBound(t *testing.T) {
	const rangeM = 100.0
	profiles := map[string][]int{
		"one-hot":    {1, 1, 1, 400, 1, 1, 1, 1},
		"geometric":  {1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
		"half-empty": {200, 180, 220, 190, 1, 1, 1, 1},
		"edge-heavy": {500, 1, 1, 1, 1, 1, 1, 500},
		"ramp":       {10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120},
	}
	for name, counts := range profiles {
		total, maxCol := 0, 0
		for _, n := range counts {
			total += n
			if n > maxCol {
				maxCol = n
			}
		}
		for _, shards := range []int{2, 3, 4} {
			pts := partitionPlacements(counts, rangeM)
			ownerOf, _, eff := StripePartition(pts, rangeM, shards)
			if eff != shards {
				t.Fatalf("%s shards=%d: effective = %d", name, shards, eff)
			}
			loads := shardLoads(pts, ownerOf, eff)
			bound := float64(total)/float64(shards) + float64(maxCol)
			for s, load := range loads {
				if float64(load) > bound+1e-9 {
					t.Errorf("%s shards=%d: shard %d carries %d nodes, bound %.1f (loads %v)", name, shards, s, load, bound, loads)
				}
			}
		}
	}
}

// evenColumnOwner is the even-column-count split the weighted partitioner
// replaced: column c of cols belongs to shard c·shards/cols, whatever the
// columns hold. It is the reference the weighted rule must match at uniform
// density and beat under skew. Placements from partitionPlacements start at
// column 0.
func evenColumnOwner(rangeM float64, cols, shards int) func(geo.Point) int {
	return func(p geo.Point) int {
		col := min(max(int(math.Floor(p.X/rangeM)), 0), cols-1)
		return col * shards / cols
	}
}

// TestStripePartitionWeightedBeatsLegacyOnSkew: the motivating case — all
// the density in one half of the region. An even-column split puts nearly
// everything in half the shards; the weighted split must strictly reduce
// the heaviest shard.
func TestStripePartitionWeightedBeatsLegacyOnSkew(t *testing.T) {
	const rangeM = 100.0
	counts := []int{300, 280, 310, 290, 2, 1, 2, 1}
	pts := partitionPlacements(counts, rangeM)

	ownerOf, _, eff := StripePartition(pts, rangeM, 4)
	if eff != 4 {
		t.Fatalf("effective = %d, want 4", eff)
	}
	even := slices.Max(shardLoads(pts, evenColumnOwner(rangeM, len(counts), 4), 4))
	weighted := slices.Max(shardLoads(pts, ownerOf, eff))
	if weighted >= even {
		t.Fatalf("weighted max load %d not below the even split's %d on a half-empty field", weighted, even)
	}
}

// TestStripePartitionUniformMatchesLegacy: with exactly uniform per-column
// node counts the weighted boundary rule degenerates to the even-column
// split — every node gets the same owner and border classification, so
// uniform-density sweeps keep the shard shapes they always had.
func TestStripePartitionUniformMatchesLegacy(t *testing.T) {
	const rangeM = 75.0
	for _, tc := range []struct{ cols, perCol, shards int }{
		{8, 5, 2}, {8, 5, 3}, {10, 3, 4}, {12, 7, 5}, {7, 4, 7}, {9, 1, 2},
	} {
		counts := make([]int, tc.cols)
		for c := range counts {
			counts[c] = tc.perCol
		}
		pts := partitionPlacements(counts, rangeM)

		evenOwner := evenColumnOwner(rangeM, tc.cols, tc.shards)
		ownerOf, borderOf, eff := StripePartition(pts, rangeM, tc.shards)
		if eff != tc.shards {
			t.Fatalf("cols=%d shards=%d: effective %d", tc.cols, tc.shards, eff)
		}
		for _, p := range pts {
			own := evenOwner(p)
			if ownerOf(p) != own {
				t.Fatalf("cols=%d shards=%d: node at x=%.1f owned by %d, even split says %d",
					tc.cols, tc.shards, p.X, ownerOf(p), own)
			}
			evenBorder := evenOwner(geo.Point{X: p.X - rangeM}) != own || evenOwner(geo.Point{X: p.X + rangeM}) != own
			if borderOf(p) != evenBorder {
				t.Fatalf("cols=%d shards=%d: node at x=%.1f border %v, even split says %v",
					tc.cols, tc.shards, p.X, borderOf(p), evenBorder)
			}
		}
	}
}

// TestStripePartitionDegenerateInputs: the narrow-deployment and bad-input
// fallbacks must keep returning the unsharded sentinel.
func TestStripePartitionDegenerateInputs(t *testing.T) {
	pts := partitionPlacements([]int{5}, 100)
	if _, _, eff := StripePartition(pts, 100, 4); eff != 1 {
		t.Fatalf("single-column deployment: effective = %d, want 1", eff)
	}
	if _, _, eff := StripePartition(nil, 100, 4); eff != 1 {
		t.Fatalf("empty deployment: effective = %d, want 1", eff)
	}
	if _, _, eff := StripePartition(pts, 0, 4); eff != 1 {
		t.Fatalf("zero range: effective = %d, want 1", eff)
	}
	if _, _, eff := StripePartition(partitionPlacements([]int{3, 3, 3}, 50), 50, 1); eff != 1 {
		t.Fatalf("shards=1: effective = %d, want 1", eff)
	}
	// Out-of-band probe points clamp to the occupied column span.
	ownerOf, _, eff := StripePartition(partitionPlacements([]int{4, 4, 4, 4}, 50), 50, 2)
	if eff != 2 {
		t.Fatalf("effective = %d, want 2", eff)
	}
	if got := ownerOf(geo.Point{X: -1e6}); got != 0 {
		t.Fatalf("far-left probe owned by %d, want 0", got)
	}
	if got := ownerOf(geo.Point{X: 1e6}); got != 1 {
		t.Fatalf("far-right probe owned by %d, want 1", got)
	}
}
