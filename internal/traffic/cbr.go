package traffic

import (
	"fmt"

	"innercircle/internal/sim"
)

// CBR is the paper's constant-bit-rate workload (Fig. 7 box): Connections
// point-to-point flows between endpoints drawn without replacement from
// the node population, each sending Rate packets/s of PacketBytes from a
// jittered start at From. Payloads are strings "c<conn>-<seq>" so sinks
// can attribute deliveries.
type CBR struct {
	Connections int
	Rate        float64 // packets per second
	PacketBytes int
	From        sim.Time // earliest start; each flow adds a jitter of up to one interval
}

// Validate implements Program. CBR reserves its 2·Connections endpoints.
func (c *CBR) Validate(n int) (int, error) {
	if c.Connections < 0 {
		return 0, fmt.Errorf("traffic: cbr needs connections >= 0, got %d", c.Connections)
	}
	if c.Connections > 0 && c.Rate <= 0 {
		return 0, fmt.Errorf("traffic: cbr needs rate > 0, got %g", c.Rate)
	}
	if c.Connections > 0 && c.PacketBytes <= 0 {
		return 0, fmt.Errorf("traffic: cbr needs packet bytes > 0, got %d", c.PacketBytes)
	}
	reserved := 2 * c.Connections
	if reserved > n {
		return 0, fmt.Errorf("traffic: %d nodes cannot host %d cbr connections", n, c.Connections)
	}
	return reserved, nil
}

// Plan implements Program: it permutes the population and pairs off the
// head as connection endpoints. The permutation's tail is the plan's
// attacker-selection order.
func (c *CBR) Plan(deps Deps) (Plan, error) {
	if _, err := c.Validate(deps.N); err != nil {
		return nil, err
	}
	if c.Connections > 0 && deps.Unicast == nil {
		return nil, fmt.Errorf("traffic: cbr needs a unicast send path (no routing component registered one)")
	}
	perm := deps.RNG.Perm(deps.N)
	p := &cbrPlan{cfg: *c, deps: deps, order: perm[2*c.Connections:]}
	p.conns = make([]cbrConn, c.Connections)
	for i := range p.conns {
		p.conns[i] = cbrConn{src: perm[2*i], dst: perm[2*i+1]}
	}
	return p, nil
}

type cbrConn struct{ src, dst int }

type cbrPlan struct {
	cfg   CBR
	deps  Deps
	conns []cbrConn
	order []int
	sent  int
}

// Order implements Orderer: the population minus the reserved endpoints,
// in permutation order.
func (p *cbrPlan) Order() []int { return p.order }

// Sent implements Sender.
func (p *cbrPlan) Sent() int { return p.sent }

// Start schedules every flow's tick chain. Each tick re-checks the clock
// so no packet is generated at or past Deps.End, even if the kernel keeps
// running.
func (p *cbrPlan) Start() {
	interval := sim.Duration(1 / p.cfg.Rate)
	for ci, c := range p.conns {
		ci, c := ci, c
		start := p.cfg.From + p.deps.RNG.Jitter(interval)
		seq := 0
		var tick func()
		tick = func() {
			if p.deps.K.Now() >= p.deps.End {
				return
			}
			p.sent++
			seq++
			p.deps.Unicast(c.src, c.dst, fmt.Sprintf("c%d-%d", ci, seq), p.cfg.PacketBytes)
			p.deps.K.ScheduleFire(interval, tick)
		}
		p.deps.K.ScheduleFire(start, tick)
	}
}
