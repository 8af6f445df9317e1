package traffic

import (
	"fmt"

	"innercircle/internal/sim"
)

// Epochs drives a synchronized duty-cycled workload (the Fig. 8 sensing
// pattern): at every multiple of Period — epoch 1 at Period, epoch 2 at
// 2·Period, ... — until the end of simulated time, OnNode runs once for
// every node, on the node's home kernel and in ascending node index within
// a kernel. The epoch callback draws nothing from the traffic stream;
// scenario components hook their per-epoch work (sampling, proposing) onto
// it. The per-node work must touch only that node's state (and state that
// is immutable during the run): on a partitioned replica the kernels fire
// the same epoch concurrently.
type Epochs struct {
	Period sim.Duration
	OnNode func(epoch int64, now sim.Time, node int)
}

// ShardSafe implements the scenario.ShardSafe marker: the per-node hook is
// the only one, so every Epochs program can drive a partitioned replica.
func (e *Epochs) ShardSafe() {}

// Validate implements Program. Epochs reserves no nodes.
func (e *Epochs) Validate(int) (int, error) {
	if e.Period <= 0 {
		return 0, fmt.Errorf("traffic: epochs needs period > 0, got %v", e.Period)
	}
	if e.OnNode == nil {
		return 0, fmt.Errorf("traffic: epochs needs an OnNode callback")
	}
	return 0, nil
}

// Plan implements Program.
func (e *Epochs) Plan(deps Deps) (Plan, error) {
	if _, err := e.Validate(deps.N); err != nil {
		return nil, err
	}
	return &epochPlan{cfg: *e, deps: deps}, nil
}

type epochPlan struct {
	cfg  Epochs
	deps Deps
}

// Start schedules one epoch chain per kernel: a single-kernel replica is
// the one-chain case, covering every node. All chains fire at the same
// virtual instants, each invoking OnNode for its own kernel's nodes, so no
// shard touches another shard's state. Each firing re-checks the clock, so
// no epoch triggers at or past Deps.End.
func (p *epochPlan) Start() {
	shards, kernel, home := 1, func(int) *sim.Kernel { return p.deps.K }, func(int) int { return 0 }
	if set := p.deps.Set; set != nil {
		shards, kernel, home = set.Shards(), set.Kernel, p.deps.NodeShard
	}
	nodes := make([][]int, shards)
	for i := 0; i < p.deps.N; i++ {
		s := home(i)
		nodes[s] = append(nodes[s], i)
	}
	for s := range nodes {
		k, mine := kernel(s), nodes[s]
		epoch := int64(0)
		var fire func()
		fire = func() {
			now := k.Now()
			if now >= p.deps.End {
				return
			}
			epoch++
			for _, i := range mine {
				p.cfg.OnNode(epoch, now, i)
			}
			k.ScheduleFire(p.cfg.Period, fire)
		}
		k.ScheduleFire(p.cfg.Period, fire)
	}
}
