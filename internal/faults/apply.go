package faults

import (
	"fmt"

	"innercircle/internal/link"
	"innercircle/internal/sim"
	"innercircle/internal/stats"
	"innercircle/internal/vote"
)

// LinkPort is the slice of link.Service a campaign needs: somewhere to
// install the wire-fault tap.
type LinkPort interface {
	SetTap(link.Tap)
}

// RouterCtl is the routing-layer attack surface, satisfied by
// *aodv.Router (this package must not import aodv — the router's test
// files import faults).
type RouterCtl interface {
	SetBlackHole(on bool)
	SetGrayHole(p float64, rng *sim.RNG)
	// MisbehaviorCount reports attack actions taken so far (forged RREPs
	// plus malicious drops); it feeds the injection counters.
	MisbehaviorCount() uint64
}

// VoteCtl is the voting-layer attack surface, satisfied by
// *vote.Service.
type VoteCtl interface {
	SetByzantine(*vote.Byzantine)
}

// Fabric hands Apply the replica's moving parts. Link is required for
// wire faults, Router for blackhole/grayhole entries, Vote for byzantine
// entries; accessors may return nil for nodes lacking the layer, which is
// an error only if an entry targets such a node.
type Fabric struct {
	K   *sim.Kernel
	RNG *sim.RNG // the replica's seed stream; fault streams are split off it
	N   int      // network size

	// Order is the attacker-selection order Count selectors consume —
	// the experiment's placement permutation with connection endpoints
	// removed, in the legacy black-hole sweep. Nil means 0..N-1.
	Order []int

	Link   func(node int) LinkPort
	Router func(node int) RouterCtl
	Vote   func(node int) VoteCtl

	// Mutate, when non-nil, is tried first by corrupt faults, letting the
	// experiment corrupt message types this package must not know about
	// (e.g. AODV data payloads). It must copy-on-write, never modify the
	// original message, and report whether it mutated.
	Mutate func(e link.Env, rng *sim.RNG) (link.Env, bool)
}

// Applied is a campaign wired into one replica. It owns the injection
// counters.
type Applied struct {
	campaign *Campaign
	targets  []int    // per entry: how many nodes it attacks
	injected []uint64 // per entry: wire/byzantine injections
	routers  [][]RouterCtl
}

// Apply wires campaign c into the replica described by fab. It validates
// the campaign, resolves each entry's targets, installs per-node
// injectors for wire faults, switches routers into black/gray-hole mode
// (synchronously for immediate windows — exactly like a hand-wired
// attacker — and via kernel events for scheduled ones) and arms Byzantine
// voting. c is never mutated and may be shared across replicas.
func Apply(fab Fabric, c *Campaign) (*Applied, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if fab.K == nil || fab.RNG == nil || fab.N <= 0 {
		return nil, fmt.Errorf("faults: fabric needs K, RNG and N")
	}
	a := &Applied{
		campaign: c,
		targets:  make([]int, len(c.Entries)),
		injected: make([]uint64, len(c.Entries)),
		routers:  make([][]RouterCtl, len(c.Entries)),
	}
	base := fab.RNG.Split("faults")
	injectors := make(map[int]*Injector)
	grayIdx := 0 // global gray-stream ordinal, matching the legacy SplitN("gray", i)
	for ei, ent := range c.Entries {
		targets, err := ent.Targets.resolve(fab.N, fab.Order)
		if err != nil {
			return nil, fmt.Errorf("faults: campaign %q entry %d: %w", c.Name, ei, err)
		}
		a.targets[ei] = len(targets)
		switch {
		case ent.Fault.wire():
			if fab.Link == nil {
				return nil, fmt.Errorf("faults: campaign %q entry %d: wire fault needs fabric Link accessor", c.Name, ei)
			}
			if ent.Fault == Spoof && fab.N < 2 {
				return nil, fmt.Errorf("faults: spoof needs at least 2 nodes")
			}
			if ent.Fault == Spoof && ent.Params.As != nil && *ent.Params.As >= fab.N {
				return nil, fmt.Errorf("faults: spoof victim %d out of range [0,%d)", *ent.Params.As, fab.N)
			}
			for _, node := range targets {
				port := fab.Link(node)
				if port == nil {
					return nil, fmt.Errorf("faults: campaign %q entry %d: node %d has no link port", c.Name, ei, node)
				}
				inj, ok := injectors[node]
				if !ok {
					inj = &Injector{k: fab.K, injected: a.injected, mutate: fab.Mutate}
					injectors[node] = inj
					port.SetTap(inj)
				}
				st := &stage{
					entry:    ei,
					kind:     ent.Fault,
					p:        ent.Params,
					win:      ent.Schedule,
					rng:      base.SplitN(fmt.Sprintf("e%d/%s", ei, ent.Fault), node),
					spoofAs:  -1,
					numNodes: fab.N,
					self:     link.NodeID(node),
				}
				if ent.Params.As != nil {
					st.spoofAs = *ent.Params.As
				}
				switch ent.dir() {
				case DirOut:
					inj.out = append(inj.out, st)
				case DirIn:
					inj.in = append(inj.in, st)
				case DirBoth:
					// One stage, both chains: drop-style faults share the
					// window state; stateful kinds (reorder) are validated
					// to a single direction.
					inj.out = append(inj.out, st)
					inj.in = append(inj.in, st)
				}
			}

		case ent.Fault == Blackhole || ent.Fault == Grayhole:
			if fab.Router == nil {
				return nil, fmt.Errorf("faults: campaign %q entry %d: %s needs fabric Router accessor", c.Name, ei, ent.Fault)
			}
			for _, node := range targets {
				ctl := fab.Router(node)
				if ctl == nil {
					return nil, fmt.Errorf("faults: campaign %q entry %d: node %d has no router", c.Name, ei, node)
				}
				a.routers[ei] = append(a.routers[ei], ctl)
				var grayRNG *sim.RNG
				if ent.Fault == Grayhole {
					grayRNG = fab.RNG.SplitN("gray", grayIdx)
					grayIdx++
				}
				scheduleRouterFault(fab.K, ent, ctl, grayRNG)
			}

		case ent.Fault == Byzantine:
			if fab.Vote == nil {
				return nil, fmt.Errorf("faults: campaign %q entry %d: byzantine needs fabric Vote accessor", c.Name, ei)
			}
			for _, node := range targets {
				ctl := fab.Vote(node)
				if ctl == nil {
					// No voting service (e.g. the No-IC configuration):
					// there is nothing to lie to, so the entry is inert on
					// this node. Sweeping one campaign across IC and No-IC
					// rows depends on this.
					continue
				}
				ei := ei
				ctl.SetByzantine(&vote.Byzantine{
					CorruptAcks: true,
					RNG:         base.SplitN("byz", node),
					OnLie:       func() { a.injected[ei]++ },
				})
			}
		}
	}
	return a, nil
}

// scheduleRouterFault activates a router attack per the entry's window.
// Immediate windows activate synchronously; scheduled and churning ones
// toggle via kernel events.
func scheduleRouterFault(k *sim.Kernel, ent Entry, ctl RouterCtl, grayRNG *sim.RNG) {
	on := func() {
		if ent.Fault == Grayhole {
			ctl.SetGrayHole(ent.Params.P, grayRNG)
		} else {
			ctl.SetBlackHole(true)
		}
	}
	off := func() {
		if ent.Fault == Grayhole {
			ctl.SetGrayHole(0, nil)
		} else {
			ctl.SetBlackHole(false)
		}
	}
	w := ent.Schedule
	if w.immediate() {
		on()
		if w.To > 0 {
			k.ScheduleFire(sim.Duration(w.To), off)
		}
		return
	}
	if w.Every == 0 {
		k.ScheduleFire(sim.Duration(w.From), on)
		if w.To > 0 {
			k.ScheduleFire(sim.Duration(w.To), off)
		}
		return
	}
	// Churn: the attack holds for the first For seconds of every
	// Every-second cycle. Each cycle schedules the next, so the chain
	// extends for as long as the kernel runs.
	var cycle func()
	cycle = func() {
		if w.To > 0 && float64(k.Now()) >= w.To {
			return
		}
		on()
		k.ScheduleFire(sim.Duration(w.For), func() {
			off()
			k.ScheduleFire(sim.Duration(w.Every-w.For), cycle)
		})
	}
	k.ScheduleFire(sim.Duration(w.From), cycle)
}

// EntryReport is one campaign entry's injection tally.
type EntryReport struct {
	Fault   Kind
	Targets int
	// Injected counts fault actions actually taken: messages dropped,
	// delayed, duplicated, corrupted, held, forged or swallowed (wire
	// faults), lies told (byzantine), forged RREPs plus malicious drops
	// (black/gray holes).
	Injected uint64
}

// Report is a campaign's injection coverage.
type Report struct {
	Campaign string
	Entries  []EntryReport
}

// TotalInjected sums the per-entry injection counts.
func (r Report) TotalInjected() uint64 {
	var total uint64
	for _, e := range r.Entries {
		total += e.Injected
	}
	return total
}

// Counters exposes the report as named stats counters ("e0/drop" etc.),
// in entry order.
func (r Report) Counters() *stats.Counters {
	c := stats.NewCounters()
	for i, e := range r.Entries {
		c.Add(fmt.Sprintf("e%d/%s", i, e.Fault), e.Injected)
	}
	return c
}

// Report tallies the injections so far (normally read after the run).
func (a *Applied) Report() Report {
	r := Report{Campaign: a.campaign.Name, Entries: make([]EntryReport, len(a.campaign.Entries))}
	for i, ent := range a.campaign.Entries {
		er := EntryReport{Fault: ent.Fault, Targets: a.targets[i], Injected: a.injected[i]}
		for _, ctl := range a.routers[i] {
			er.Injected += ctl.MisbehaviorCount()
		}
		r.Entries[i] = er
	}
	return r
}
