package scenario

import (
	"strings"

	"innercircle/internal/stats"
)

// Counter and gauge names the runner fills for every scenario. Component
// and adversary harvesters add their own names after these, so a Result's
// iteration order is: runner counters, component metrics, adversary
// coverage.
const (
	CtrSent            = "sent"             // application payloads injected
	CtrReceived        = "received"         // delivered intact at a sink
	CtrReceivedCorrupt = "received_corrupt" // delivered with a corrupt-marked payload

	// Fault-injection coverage (added by adversary harvesters):
	CtrFaultsInjected   = "faults_injected"   // attack/fault actions taken
	CtrFaultsSuppressed = "faults_suppressed" // neutralized at the protocol level
	CtrFaultsLeaked     = "faults_leaked"     // corruption that reached a sink

	// Crypto fast-path accounting (IC replicas only). Hits count signature
	// verifications answered from the replica's shared verification memo —
	// each one a modular exponentiation avoided; misses count checks
	// actually performed. Neither feeds any modeled metric: they expose
	// the wall-clock win.
	CtrVoteMemoHits   = "vote_memo_hits"
	CtrVoteMemoMisses = "vote_memo_misses"

	GaugeThroughputPct  = "throughput_pct"    // received/sent, percent
	GaugeEnergyPerNodeJ = "energy_per_node_j" // joules over the run

	// Shard utilization (sharded replicas only; see sim.ShardUtil):
	// deterministic functions of the partition, set whenever the replica
	// ran on more than one shard, so Results are bit-identical across slot
	// counts. What the executor's synchronization cost in wall-clock terms
	// is printed by Spec.ShardStats and never stored. None of them feeds
	// any modeled metric or sweep table.
	GaugeShardEventsMin = "shard_events_min"      // lightest shard's events executed
	GaugeShardEventsMax = "shard_events_max"      // heaviest shard's events executed
	GaugeShardStraggler = "shard_straggler_ratio" // max/min events across shards
)

// Result is a scenario run's uniform harvest: ordered event counters and
// ordered scalar gauges. Uniformity is the point — every scenario's
// outcome flows through the same two containers, so sweep folding,
// printing and regression comparison need no per-scenario structs.
type Result struct {
	Name     string
	Counters *stats.Counters
	Gauges   *stats.Gauges
	// Shards is the shard count the replica actually executed with, and
	// ShardReason why that is fewer than Spec.Shards asked for (one of the
	// Reason constants; "" when it is not). Both are planShards' decision.
	// They are diagnostic only — by the determinism contract they never
	// influence any counter or gauge — so they live outside the metric
	// containers.
	Shards      int
	ShardReason string
}

// Counter returns a counter's value (0 if the run never touched it).
func (r *Result) Counter(name string) uint64 { return r.Counters.Get(name) }

// Gauge returns a gauge's value (0 if the run never set it).
func (r *Result) Gauge(name string) float64 { return r.Gauges.Get(name) }

// CorruptMark prefixes payloads mangled by a corrupt fault, so sinks can
// tell leaked corruption from intact delivery.
const CorruptMark = "\x00corrupt\x00"

// SinkTally is the harvest-layer accounting for application sinks: every
// delivered payload is classified as intact or leaked corruption. The
// scenario Env carries one tally; sink components feed Deliver from their
// delivery upcalls and the runner folds the totals into the Result.
type SinkTally struct {
	Received int // intact deliveries
	Corrupt  int // corrupt-marked deliveries (faults that leaked through)
}

// Deliver classifies one sink-delivered payload. Only string payloads can
// carry the corrupt mark; any other payload type counts as intact.
func (t *SinkTally) Deliver(payload any) {
	if s, ok := payload.(string); ok && strings.HasPrefix(s, CorruptMark) {
		t.Corrupt++
		return
	}
	t.Received++
}
