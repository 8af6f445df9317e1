// Package traffic provides declarative application-workload programs for
// the scenario layer (internal/scenario). A Program describes *what*
// traffic a scenario carries — CBR connection sets, synchronized sensing
// epochs — independent of the node stack that carries it; the scenario
// runner instantiates the program into a Plan wired to one replica's
// kernel and RNG stream.
//
// A plan drives each node's work from the node's home kernel. A
// single-kernel replica is the case where that is the same kernel for
// every node, not a separate code path: Epochs starts one chain per kernel
// either way.
//
// Determinism contract: every random choice a program makes is drawn from
// Deps.RNG, the scenario seed's dedicated "traffic" stream, in a fixed
// order — endpoint selection at Plan time, per-flow jitters at Start time
// — so the same seed always reproduces the same packet schedule.
package traffic

import "innercircle/internal/sim"

// Deps is the substrate a Program drives. The scenario runner fills it;
// tests can construct one directly around a bare kernel.
type Deps struct {
	K *sim.Kernel
	// RNG is the scenario's dedicated traffic stream (seed split
	// "traffic"); all of a program's draws come from it.
	RNG *sim.RNG
	// N is the network size.
	N int
	// End is the end of simulated time: no payload is generated at or
	// past it.
	End sim.Time
	// Unicast injects one application packet from node src to node dst.
	// Programs generating point-to-point traffic require it; the scenario
	// runner wires it to the routing component's send path.
	Unicast func(src, dst int, payload any, sizeBytes int)

	// Set and NodeShard describe a partitioned replica (sim.ShardSet):
	// NodeShard maps a node index to its home shard. Both are nil on a
	// single-kernel replica. A plan must drive each node's work from its
	// home shard's kernel; a program that does carries the scenario.ShardSafe
	// marker (a method ShardSafe()), and the scenario runner keeps every
	// other program on one kernel.
	Set       *sim.ShardSet
	NodeShard func(i int) int
}

// Program is a declarative application workload.
type Program interface {
	// Validate checks static parameters against the network size n and
	// returns the number of nodes the program reserves exclusively
	// (adversary count-selectors must not target reserved nodes).
	Validate(n int) (reserved int, err error)
	// Plan draws the program's random choices (endpoints, phases) from
	// deps.RNG and returns the replica-bound plan. Plan must not schedule
	// kernel events; that happens in Plan.Start.
	Plan(deps Deps) (Plan, error)
}

// Plan is a Program instantiated for one replica.
type Plan interface {
	// Start schedules the workload's kernel events. The scenario runner
	// calls it after the adversary is wired and protocol services are
	// started, so the first packets see a converging network.
	Start()
}

// Orderer is implemented by plans that define the attacker-selection
// order for count-selected adversaries: the node population with the
// plan's reserved endpoints removed (an attacker that is itself a traffic
// endpoint would trivially zero its own flow).
type Orderer interface {
	Order() []int
}

// Sender is implemented by plans that count the packets they injected;
// the scenario harvest folds the count into the run's "sent" counter.
type Sender interface {
	Sent() int
}
