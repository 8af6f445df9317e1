package scenario

import "strings"

// Result is what the runner measures of one replica. It is a comparable
// value — the determinism tests compare whole results with == — and it
// holds only the runner's own measurements: a component's metrics stay on
// the component, where the experiment layer reads them after Run returns.
type Result struct {
	Sent     int // application payloads the traffic plan injected
	Received int // delivered intact at a sink
	Corrupt  int // delivered with a corrupt-marked payload

	ThroughputPct float64 // Received/Sent in percent; zero without traffic
	EnergyPerNode float64 // joules over the run

	// VoteMemoHits counts signature verifications answered from the
	// replica's shared verification memo — each one a modular
	// exponentiation avoided; zero with IC off. It feeds no modeled metric.
	VoteMemoHits uint64

	Faults Coverage     // zero without a fault campaign
	Churn  ChurnOutcome // zero without churn

	// Shards is the shard count the replica actually executed with, and
	// ShardReason why that is fewer than Spec.Shards asked for (one of the
	// Reason constants; "" when it is not). Both are planShards' decision
	// and diagnostic only: by the determinism contract they never influence
	// any other field.
	Shards      int
	ShardReason string
}

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
