package scenario

import (
	"fmt"

	"innercircle/internal/node"
	"innercircle/internal/sim"
)

// Reshare policies for the churn axis: how the circle's key material
// follows membership changes.
const (
	// ReshareOnEvent reshares immediately after every effective
	// membership transition (the default). Departed shares die as fast as
	// the circle can react.
	ReshareOnEvent = "event"
	// ReshareEvery reshares on a fixed schedule regardless of events;
	// departed shares stay combinable until the next scheduled epoch.
	ReshareEvery = "interval"
	// ReshareOff never reshares: churn degrades the circle (departed
	// nodes keep valid shares, rejoined nodes never regain any) — the
	// no-neutralization baseline.
	ReshareOff = "off"
)

// Churn is the declarative membership-churn axis of a Spec: a schedule of
// leave and crash-and-rejoin events over the inner circle, plus the
// reshare policy that decides how the level keys follow the surviving
// set. Zero value (and nil) means no churn; a Spec with Churn == nil or
// an all-zero Churn runs byte-identically to one that predates the field.
//
// All schedule randomness (victims and firing times) comes from the
// replica's "churn" seed stream, so the schedule is deterministic per
// seed and — the streams being pure splits — its presence never perturbs
// placement, traffic, or fault draws. Churn forces the replica onto a
// single kernel: a membership transition swaps every node's signer set at
// one instant, which a sharded run cannot order.
type Churn struct {
	// CrashRejoin is the number of crash-and-rejoin cycles drawn over the
	// window: the victim crashes (open rounds drained, signers revoked,
	// beaconing stops) and rejoins Downtime later, regaining signers at
	// the next reshare. This is the churn-rate axis sweeps scale.
	CrashRejoin int `json:"crash_rejoin,omitempty"`
	// Leaves is the number of permanent departures drawn over the window.
	Leaves int `json:"leaves,omitempty"`
	// Start and Window bound the event times: each event fires uniformly
	// in [Start, Start+Window). Defaults: SimTime/4 and SimTime/2, which
	// leave the warm-up and the tail churn-free.
	Start  sim.Time     `json:"start,omitempty"`
	Window sim.Duration `json:"window,omitempty"`
	// Downtime is the crash-to-rejoin delay. Default 10 s.
	Downtime sim.Duration `json:"downtime,omitempty"`
	// Reshare selects the reshare policy; default ReshareOnEvent.
	Reshare string `json:"reshare,omitempty"`
	// ReshareInterval is the period of scheduled reshares (policy
	// ReshareEvery), anchored at Start.
	ReshareInterval sim.Duration `json:"reshare_interval,omitempty"`
	// RefreshInterval, when positive, proactively refreshes the level
	// keys every interval from Start (Herzberg-style share rotation),
	// independent of the reshare policy.
	RefreshInterval sim.Duration `json:"refresh_interval,omitempty"`
	// Protect exempts the first Protect node indices from churn. Default
	// 1: node 0 is the base station in the grid topologies.
	Protect int `json:"protect,omitempty"`
}

// ChurnOutcome is what a churn schedule did to the replica.
type ChurnOutcome struct {
	Events        uint64 // effective membership transitions
	Reshares      uint64 // reshares executed
	Refreshes     uint64 // proactive refreshes executed
	RoundsAborted uint64 // vote rounds drained by transitions
	Epoch         uint64 // final key epoch
}

// active reports whether this churn config schedules anything at run
// time.
func (c *Churn) active() bool {
	return c != nil && (c.CrashRejoin > 0 || c.Leaves > 0 || c.RefreshInterval > 0)
}

// validate checks the static shape.
func (c *Churn) validate(s *Spec) error {
	if c == nil {
		return nil
	}
	switch c.Reshare {
	case "", ReshareOnEvent, ReshareEvery, ReshareOff:
	default:
		return fmt.Errorf("unknown reshare policy %q", c.Reshare)
	}
	if c.CrashRejoin < 0 || c.Leaves < 0 {
		return fmt.Errorf("negative churn event counts (%d crash-rejoin, %d leaves)", c.CrashRejoin, c.Leaves)
	}
	if c.Start < 0 || c.Window < 0 || c.Downtime < 0 || c.ReshareInterval < 0 || c.RefreshInterval < 0 {
		return fmt.Errorf("negative churn times")
	}
	if c.Reshare == ReshareEvery && c.ReshareInterval <= 0 {
		return fmt.Errorf("reshare policy %q needs a positive reshare_interval", ReshareEvery)
	}
	configured := c.CrashRejoin > 0 || c.Leaves > 0 || c.RefreshInterval > 0
	if configured && !s.Stack.IC {
		return fmt.Errorf("churn requires the inner circle (Stack.IC)")
	}
	if configured && c.Protect >= s.Nodes {
		return fmt.Errorf("churn protects all %d nodes", s.Nodes)
	}
	return nil
}

// churnDriver owns a replica's scheduled membership lifecycle; the
// membership manager keeps the counts.
type churnDriver struct {
	m      *node.Membership
	policy string
}

// applyChurn schedules the churn events on the replica's kernel; call
// only when c.active(). Defaults are resolved here, into locals — the
// Spec is never mutated, so a spec marshals back byte-identically no
// matter how often it ran.
func applyChurn(c *Churn, env *Env) (*churnDriver, error) {
	m, err := env.Net.Membership()
	if err != nil {
		return nil, err
	}
	s := env.Spec
	start := c.Start
	if start <= 0 {
		start = s.SimTime / 4
	}
	window := c.Window
	if window <= 0 {
		window = s.SimTime / 2
	}
	downtime := c.Downtime
	if downtime <= 0 {
		downtime = 10
	}
	policy := c.Reshare
	if policy == "" {
		policy = ReshareOnEvent
	}
	protect := c.Protect
	if protect <= 0 {
		protect = 1
	}
	d := &churnDriver{m: m, policy: policy}
	k := env.K()
	rng := env.SeedStream("churn")

	// Draw the whole schedule up front in a fixed order (leaves, then
	// crash cycles: victim then time each), so the stream's draw order —
	// the only thing determinism depends on — is independent of event
	// firing order.
	pick := func() int { return protect + rng.Intn(s.Nodes-protect) }
	for i := 0; i < c.Leaves; i++ {
		victim, at := pick(), sim.Time(rng.Uniform(float64(start), float64(start+window)))
		k.ScheduleFire(at, func() { d.transition(d.m.Leave(victim)) })
	}
	for i := 0; i < c.CrashRejoin; i++ {
		victim, at := pick(), sim.Time(rng.Uniform(float64(start), float64(start+window)))
		crashed := false
		k.ScheduleFire(at, func() { crashed = d.transition(d.m.Crash(victim)) })
		k.ScheduleFire(at+downtime, func() {
			// Rejoin only what this cycle actually crashed: a no-op crash
			// (victim already out) must not resurrect a permanent leaver.
			if crashed {
				d.transition(d.m.Join(victim))
			}
		})
	}
	if policy == ReshareEvery {
		for at := start; at < s.SimTime; at += c.ReshareInterval {
			k.ScheduleFire(at, d.reshare)
		}
	}
	if c.RefreshInterval > 0 {
		for at := start + c.RefreshInterval; at < s.SimTime; at += c.RefreshInterval {
			k.ScheduleFire(at, d.refresh)
		}
	}
	return d, nil
}

// transition applies the per-event reshare policy after a membership
// operation; effective is whether the operation took effect, and is
// returned.
func (d *churnDriver) transition(effective bool) bool {
	if effective && d.policy == ReshareOnEvent {
		d.reshare()
	}
	return effective
}

// reshare moves the keys to the current active set; a circle too small
// to reshare is left degraded (level revocation already limits what the
// survivors can sign).
func (d *churnDriver) reshare() {
	if d.m.ActiveCount() >= 2 {
		_ = d.m.Reshare()
	}
}

// refresh rotates the current shares in place.
func (d *churnDriver) refresh() { _ = d.m.Refresh() }

// outcome reports what the schedule did, from the membership manager's
// counts; read it after the run.
func (d *churnDriver) outcome() ChurnOutcome {
	st := d.m.Stats
	return ChurnOutcome{Events: st.Departs + st.Crashes + st.Joins, Reshares: st.Reshares,
		Refreshes: st.Refreshes, RoundsAborted: st.RoundsAborted, Epoch: st.Epoch}
}
