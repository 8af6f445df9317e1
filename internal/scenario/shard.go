package scenario

import (
	"fmt"
	"math"
	"os"
	"strconv"

	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// ShardSafe marks adversaries whose Apply only mutates pre-run, per-node
// state (e.g. injecting measurement faults into sensing devices) and whose
// runtime effects stay on each node's home kernel. Adversaries without the
// marker — fault campaigns tap links and schedule kernel events of their
// own — force the replica back to a single shard.
type ShardSafe interface {
	ShardSafeAdversary()
}

// StripePartition divides a static deployment into vertical stripes of
// radio-grid cell columns, one contiguous run of columns per shard. The
// column width equals the radio range, so every stripe is at least one
// range wide: cross-stripe transmissions only ever reach the adjacent
// stripe (the shard set's neighbor topology), and any node that can hear
// across a boundary is within one range of it.
//
// Stripe boundaries are load-weighted: columns carry their node counts and
// each boundary is placed at the smallest column prefix whose weight
// reaches that shard's proportional share (smallest b with
// cum(b)·shards >= i·total), clamped so every shard keeps at least one
// column. Under density skew this caps the heaviest shard at
// total/shards + heaviest-column — the straggler that would otherwise gate
// every neighbor's horizon — while a deployment with exactly uniform
// per-column counts gets the even-column-count boundaries
// (col·shards/cols). Consecutive columns map to the same or the next shard
// (|Δcol| <= 1 adjacency), and sweep results are partition-independent by
// the kernel's determinism contract.
//
// It returns the owner and border classifiers plus the effective shard
// count, clamped to the number of occupied columns (a deployment narrower
// than two columns cannot be partitioned and yields shards == 1 with nil
// classifiers).
func StripePartition(positions []geo.Point, rangeM float64, shards int) (ownerOf func(geo.Point) int, borderOf func(geo.Point) bool, effective int) {
	if rangeM <= 0 || len(positions) == 0 || shards < 2 {
		return nil, nil, 1
	}
	minX, maxX := positions[0].X, positions[0].X
	for _, p := range positions[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
	}
	cmin := int(math.Floor(minX / rangeM))
	cmax := int(math.Floor(maxX / rangeM))
	cols := cmax - cmin + 1
	if shards > cols {
		shards = cols
	}
	if shards < 2 {
		return nil, nil, 1
	}
	colOwner := make([]int, cols)
	// cum[b] is the node count of columns [0, b); boundary i is the
	// smallest b with cum[b]·shards >= i·total, kept within
	// [prev+1, cols-(shards-i)] so every shard owns >= 1 column. The
	// unclamped rule bounds every shard's load by total/shards +
	// max-column (the prefix overshoots its target by less than one
	// column); a binding clamp only ever pins single-column shards.
	cum := make([]int, cols+1)
	for _, p := range positions {
		col := int(math.Floor(p.X / rangeM))
		if col < cmin {
			col = cmin
		}
		if col > cmax {
			col = cmax
		}
		cum[col-cmin+1]++
	}
	for c := 0; c < cols; c++ {
		cum[c+1] += cum[c]
	}
	total := cum[cols]
	prev := 0
	for i := 1; i < shards; i++ {
		b := prev + 1
		for b < cols-(shards-i) && cum[b]*shards < i*total {
			b++
		}
		for c := prev; c < b; c++ {
			colOwner[c] = i - 1
		}
		prev = b
	}
	for c := prev; c < cols; c++ {
		colOwner[c] = shards - 1
	}
	ownerOf = func(p geo.Point) int {
		col := int(math.Floor(p.X / rangeM))
		if col < cmin {
			col = cmin
		}
		if col > cmax {
			col = cmax
		}
		return colOwner[col-cmin]
	}
	borderOf = func(p geo.Point) bool {
		own := ownerOf(p)
		return ownerOf(geo.Point{X: p.X - rangeM, Y: p.Y}) != own ||
			ownerOf(geo.Point{X: p.X + rangeM, Y: p.Y}) != own
	}
	return ownerOf, borderOf, shards
}

// harvestShardStats folds the shard set's utilization records into the
// Result. The events-based gauges are deterministic (they depend only on
// the partition and the simulation); the wall-clock synchronization gauges
// vary run to run and are set only under IC_SHARD_STATS=1, which also
// prints the full per-shard table to stderr.
func harvestShardStats(res *Result, set *sim.ShardSet) {
	util := set.Utilization()
	minEv, maxEv := util[0].Events, util[0].Events
	var nulls, parks uint64
	var blockedNs int64
	for _, u := range util {
		if u.Events < minEv {
			minEv = u.Events
		}
		if u.Events > maxEv {
			maxEv = u.Events
		}
		nulls += u.NullRepublishes
		parks += u.Parks
		blockedNs += u.BlockedNs
	}
	res.Gauges.Set(GaugeShardEventsMin, float64(minEv))
	res.Gauges.Set(GaugeShardEventsMax, float64(maxEv))
	straggler := float64(maxEv)
	if minEv > 0 {
		straggler = float64(maxEv) / float64(minEv)
	}
	res.Gauges.Set(GaugeShardStraggler, straggler)
	if os.Getenv("IC_SHARD_STATS") != "1" {
		return
	}
	res.Gauges.Set(GaugeShardNullRepublish, float64(nulls))
	res.Gauges.Set(GaugeShardParks, float64(parks))
	res.Gauges.Set(GaugeShardBlockedMs, float64(blockedNs)/1e6)
	fmt.Fprintf(os.Stderr, "shardstats %s: shards=%d straggler=%.3f\n", res.Name, len(util), straggler)
	for i, u := range util {
		fmt.Fprintf(os.Stderr, "  shard %2d: events=%d null_republishes=%d parks=%d blocked_ms=%.2f\n",
			i, u.Events, u.NullRepublishes, u.Parks, float64(u.BlockedNs)/1e6)
	}
}

// MaxShards bounds a shard count from outside (Spec, request, IC_SHARDS):
// StripePartition clamps one only to the columns region/range makes, an idle
// kernel costs about 11 KB and the merge key has 15 bits for a source shard.
const MaxShards = 1024

// ValidShards rejects a shard count that is negative or above MaxShards.
func ValidShards(n int) error {
	if n < 0 || n > MaxShards {
		return fmt.Errorf("shard count must be between 0 and %d, got %d", MaxShards, n)
	}
	return nil
}

// effectiveShards resolves the shard count a replica will attempt: the
// Spec's explicit Shards, else the IC_SHARDS environment knob, else 1 —
// then dropped back to 1 for replica shapes sharding cannot carry (a
// tracer's single ordered tap, a non-shard-capable traffic program, an
// adversary without the ShardSafe marker). Topology and geometry checks
// need the placed positions and happen later, in runOnce.
func effectiveShards(s *Spec) int {
	n := s.Shards
	if n == 0 {
		if v := os.Getenv("IC_SHARDS"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 && parsed <= MaxShards {
				n = parsed
			}
		}
	}
	if n < 2 {
		return 1
	}
	if s.Stack.Tracer != nil {
		return 1
	}
	if s.Churn.active() {
		// Membership transitions swap every node's signer set at one
		// instant; only a single kernel can order that against traffic.
		return 1
	}
	if s.Traffic != nil {
		sc, ok := s.Traffic.(interface{ ShardCapable() bool })
		if !ok || !sc.ShardCapable() {
			return 1
		}
	}
	if s.Adversary != nil {
		if _, ok := s.Adversary.(ShardSafe); !ok {
			return 1
		}
	}
	return n
}

// staticTopology probes whether the topology yields static mobility. The
// probe model is built from a throwaway pure split, so it perturbs no
// replica stream.
func staticTopology(s *Spec, positions []geo.Point, seed *sim.RNG) bool {
	probe := s.Topology.Model(0, positions[0], seed.Split("shard-probe"))
	_, ok := probe.(mobility.Static)
	return ok
}
