package scenario

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"

	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// ShardSafe marks the parts of a Spec that can run on a partitioned
// replica — one convention for both optional parts. A traffic.Program
// carries it when its plan drives each node's work from the node's home
// kernel (traffic.Deps.NodeShard); an Adversary carries it when its Apply
// only mutates pre-run, per-node state (e.g. injecting measurement faults
// into sensing devices) and its runtime effects stay on each node's home
// kernel. A part without the marker — CBR draws endpoints across the field,
// fault campaigns tap links and schedule kernel events of their own — keeps
// the replica on one kernel (ReasonTraffic, ReasonAdversary).
type ShardSafe interface {
	ShardSafe()
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
// Result's gauges. They depend only on the partition and the simulation, so
// they are deterministic at every slot count; the wall-clock side of the
// same records (null republishes, parks, blocked time) is only ever printed
// (writeShardStats), never stored.
func harvestShardStats(res *Result, util []sim.ShardUtil) {
	minEv, maxEv := util[0].Events, util[0].Events
	for _, u := range util {
		minEv = min(minEv, u.Events)
		maxEv = max(maxEv, u.Events)
	}
	res.Gauges.Set(GaugeShardEventsMin, float64(minEv))
	res.Gauges.Set(GaugeShardEventsMax, float64(maxEv))
	straggler := float64(maxEv)
	if minEv > 0 {
		straggler = float64(maxEv) / float64(minEv)
	}
	res.Gauges.Set(GaugeShardStraggler, straggler)
}

// writeShardStats reports one replica that asked for more than one shard to
// Spec.ShardStats: the per-shard utilization table when it ran sharded, and
// the planner's reason when it ran on fewer shards than asked. The report is
// built first and handed over in one Write, so replicas on the parallel
// pool can share a writer whose Write is atomic (the CLI's standard error).
func writeShardStats(w io.Writer, res *Result, asked int, util []sim.ShardUtil) {
	var b bytes.Buffer
	if len(util) > 0 {
		fmt.Fprintf(&b, "shardstats %s: shards=%d straggler=%.3f\n", res.Name, len(util), res.Gauge(GaugeShardStraggler))
		for i, u := range util {
			fmt.Fprintf(&b, "  shard %2d: events=%d null_republishes=%d parks=%d blocked_ms=%.2f\n",
				i, u.Events, u.NullRepublishes, u.Parks, float64(u.BlockedNs)/1e6)
		}
	}
	if res.ShardReason != "" {
		fmt.Fprintf(&b, "shardstats %s: ran on %d of %d shards: %s\n", res.Name, res.Shards, asked, res.ShardReason)
	}
	_, _ = w.Write(b.Bytes()) // a diagnostic: a failed write has nowhere to be reported
}

// MaxShards bounds a shard count from outside (Spec, request):
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

// Why a replica ran on fewer shards than its Spec asked for
// (Result.ShardReason), in the order planShards tests them.
const (
	// ReasonTracer: a tracer is one ordered tap over all wire traffic.
	ReasonTracer = "tracer attached"
	// ReasonChurn: a membership transition swaps every node's signer set
	// at one instant; only a single kernel can order that against traffic.
	ReasonChurn = "active churn"
	// ReasonTraffic and ReasonAdversary: the part lacks the ShardSafe marker.
	ReasonTraffic   = "traffic program not shard-safe"
	ReasonAdversary = "adversary not shard-safe"
	// ReasonTie: a sharded attempt aborted on sim.ErrShardTie — two shards
	// produced bit-identical event timestamps, an order the conservative
	// protocol cannot resolve against the single-kernel reference.
	ReasonTie = "cross-shard timestamp tie"
	// ReasonMobile: the stripes are cut from placement positions.
	ReasonMobile = "mobile topology"
	// ReasonColumns: a stripe is at least one radio-range column wide.
	ReasonColumns = "deployment narrower than one grid column per shard"
	// ReasonSlots: the core budget leaves the replica one executor slot
	// (GOMAXPROCS=1, or a worker pool holding every token), and several
	// kernels taking turns on one goroutine only add horizon work.
	ReasonSlots = "one executor slot"
)

// shardPlan is what planShards decides for one replica attempt.
type shardPlan struct {
	shards int    // kernels the attempt runs on
	reason string // why that is fewer than Spec.Shards; "" when it is not
	// slots is the executor slot count the shards run on, 1 on one kernel.
	// The planner holds slots-1 core tokens for them; the caller releases
	// them when the replica ends.
	slots int
	// ownerOf and borderOf classify positions (StripePartition); nil on
	// one shard.
	ownerOf  func(geo.Point) int
	borderOf func(geo.Point) bool
}

// planShards decides how many kernels a replica attempt runs on, and on how
// many executor slots. It is the only place a requested count is lowered,
// every rule that lowers one names its reason, and the rules run in a fixed
// order so the reason reported for a replica that trips several is stable:
// what the Spec carries, then what the previous attempt observed (tied),
// then the placed topology, then its geometry, then the cores to run it on.
// The topology probe builds its model from a throwaway pure split, so it
// perturbs no replica stream.
func planShards(s *Spec, positions []geo.Point, seed *sim.RNG, tied bool) shardPlan {
	one := func(reason string) shardPlan { return shardPlan{shards: 1, reason: reason, slots: 1} }
	if s.Shards < 2 {
		return one("")
	}
	if s.Stack.Tracer != nil {
		return one(ReasonTracer)
	}
	if s.Churn.active() {
		return one(ReasonChurn)
	}
	if _, ok := s.Traffic.(ShardSafe); s.Traffic != nil && !ok {
		return one(ReasonTraffic)
	}
	if _, ok := s.Adversary.(ShardSafe); s.Adversary != nil && !ok {
		return one(ReasonAdversary)
	}
	if tied {
		return one(ReasonTie)
	}
	if _, ok := s.Topology.Model(0, positions[0], seed.Split("shard-probe")).(mobility.Static); !ok {
		return one(ReasonMobile)
	}
	p := shardPlan{slots: 1}
	p.ownerOf, p.borderOf, p.shards = StripePartition(positions, s.Stack.Radio.Range, s.Shards)
	if p.shards < s.Shards {
		p.reason = ReasonColumns
	}
	if p.shards < 2 {
		return p
	}
	// The calling goroutine is one slot; the others are spare core tokens,
	// at most one per further shard and capped at GOMAXPROCS. Taken once
	// here, before the build, so a replica that cannot run two slots builds
	// one kernel instead of S kernels that would take turns on one.
	granted := sim.AcquireCores(p.shards - 1)
	p.slots = min(1+granted, runtime.GOMAXPROCS(0))
	sim.ReleaseCores(1 + granted - p.slots)
	if p.slots == 1 {
		return one(ReasonSlots)
	}
	return p
}
