// Package experiment contains the per-figure harnesses that regenerate the
// paper's evaluation. Each harness is a thin declarative scenario.Spec —
// topology, stack, traffic program, adversary — handed to scenario.Run;
// the sweeps fan replicas over the parallel pool (pool.go) and fold the
// tables in enumeration order. See DESIGN.md §3 for the experiment index.
package experiment

import (
	"fmt"
	"strings"

	"innercircle/internal/aodv"
	"innercircle/internal/energy"
	"innercircle/internal/faults"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/scenario"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/trace"
	"innercircle/internal/traffic"
	"innercircle/internal/vote"
)

// BlackholeConfig parameterizes one Fig. 7 run. Defaults (via
// PaperBlackholeConfig) come from the Fig. 7 simulation-parameter box.
// The JSON form is the experiment service's wire format (grid.go): every
// knob that shapes the replica is tagged, and the per-replica runtime
// Tracer is deliberately excluded — a config that reaches serialization
// must not carry one.
type BlackholeConfig struct {
	Nodes       int          `json:"nodes"`        // 50
	Region      float64      `json:"region"`       // 1000 m square
	Speed       float64      `json:"speed"`        // 10 m/s random waypoint
	Pause       sim.Duration `json:"pause"`        //
	Connections int          `json:"connections"`  // 10 CBR connections
	Rate        float64      `json:"rate"`         // 4 packets/s
	PacketBytes int          `json:"packet_bytes"` // 512
	SimTime     sim.Time     `json:"sim_time"`
	TrafficFrom sim.Time     `json:"traffic_from"` // CBR start (lets STS converge)
	Malicious   int          `json:"malicious"`
	// GrayProb, when positive, makes the malicious nodes gray holes that
	// misbehave with this probability per opportunity instead of always.
	GrayProb float64 `json:"gray_prob,omitempty"`
	// Campaign, when non-nil, replaces the Malicious/GrayProb adversary
	// with an arbitrary fault campaign (internal/faults). The legacy
	// knobs are internally routed through the equivalent campaign preset,
	// so Malicious=m and Campaign=&BlackholePreset(m) produce identical
	// results. The campaign is read-only and may be shared by replicas.
	Campaign *faults.Campaign `json:"campaign,omitempty"`
	IC       bool             `json:"ic"`
	L        int              `json:"l"`
	Seed     int64            `json:"seed"`
	// Tracer, when non-nil, taps all wire traffic (slower; for debugging
	// and the icsim tool). A tracer belongs to exactly one replica: the
	// sweep entry points reject a config carrying one, because their
	// parallel workers would all write into it concurrently.
	Tracer *trace.Tracer `json:"-"`
}

// PaperBlackholeConfig returns the Fig. 7 parameter box.
func PaperBlackholeConfig() BlackholeConfig {
	return BlackholeConfig{
		Nodes:       50,
		Region:      1000,
		Speed:       10,
		Pause:       0,
		Connections: 10,
		Rate:        4,
		PacketBytes: 512,
		SimTime:     300,
		TrafficFrom: 5,
		IC:          false,
		L:           1,
	}
}

// BlackholeResult is the outcome of one run. It must stay comparable
// with == (no slice/map fields): the determinism tests compare whole
// results across replicas.
type BlackholeResult struct {
	Sent            int
	Received        int     // delivered intact
	ReceivedCorrupt int     // delivered with a fault-corrupted payload
	Throughput      float64 // received/sent, in percent
	EnergyPerNode   float64 // joules

	// Fault-injection coverage (all zero without an adversary):
	// FaultsInjected counts attack/fault actions taken, FaultsSuppressed
	// counts protocol-level neutralizations (bad-signature and
	// suspected-sender suppressions, rejected beacons, corrupt partials
	// identified, invalid agreed messages), and FaultsLeaked counts
	// corrupted payloads that reached an application sink.
	FaultsInjected   uint64
	FaultsSuppressed uint64
	FaultsLeaked     uint64

	// VerifiesAvoided counts signature verifications answered from the
	// replica's shared verification memo (zero with IC off). Pure
	// wall-clock accounting: it feeds no modeled metric.
	VerifiesAvoided uint64
}

// aodvRouting is the Fig. 7 routing component: one AODV router per node,
// IC-adapted when the inner circle is on, delivering application payloads
// into the scenario sink tally.
type aodvRouting struct {
	routers  []*aodv.Router
	adapters []*aodv.ICAdapter
}

func newAODVRouting(n int) *aodvRouting {
	if n < 0 {
		n = 0
	}
	return &aodvRouting{
		routers:  make([]*aodv.Router, n),
		adapters: make([]*aodv.ICAdapter, n),
	}
}

// Validate implements scenario.Validator: AODV route discovery needs a
// minimum population to form multi-hop routes.
func (rt *aodvRouting) Validate(s *scenario.Spec) error {
	if s.Nodes < 4 {
		return fmt.Errorf("experiment: need at least 4 nodes")
	}
	return nil
}

// Wire implements scenario.Wirer: publish the unicast send path for the
// CBR program and the fault-campaign control surfaces.
func (rt *aodvRouting) Wire(env *scenario.Env) {
	env.SetUnicast(func(src, dst int, payload any, sizeBytes int) {
		_ = rt.routers[src].Send(link.NodeID(dst), payload, sizeBytes)
	})
	env.SetRouterCtl(func(i int) faults.RouterCtl {
		if rt.routers[i] == nil {
			return nil
		}
		return rt.routers[i]
	})
	env.SetMutate(corruptPayload)
}

// build assembles node nd's router and hooks its delivery upcall into the
// scenario sink.
func (rt *aodvRouting) build(env *scenario.Env, nd *node.Node) *aodv.Router {
	r, err := aodv.New(aodv.DefaultConfig(), aodv.Deps{
		ID: nd.ID, K: nd.K, Link: nd.Link, RNG: nd.RNG.Split("aodv"),
	})
	if err != nil {
		env.Fail(fmt.Errorf("aodv router %d: %w", nd.Index, err))
		return nil
	}
	rt.routers[nd.Index] = r
	sink := &env.Sink
	r.OnDeliver(func(d aodv.Data) { sink.Deliver(d.Payload) })
	nd.Handle(r.HandleEnv)
	return r
}

// Register implements scenario.Registrar (IC mode): the router is built
// inside node.Build's voting pass so the IC adapter's callbacks can be
// handed to the voting service.
func (rt *aodvRouting) Register(env *scenario.Env, nd *node.Node) vote.Callbacks {
	r := rt.build(env, nd)
	if r == nil {
		return vote.Callbacks{}
	}
	adapter, cbs := aodv.NewICAdapter(nd.ID, r, nd.Intercept)
	rt.adapters[nd.Index] = adapter
	return cbs
}

// Attach implements scenario.Component: IC mode binds the adapter to the
// now-built voting service; the No-IC baseline builds its router here.
func (rt *aodvRouting) Attach(env *scenario.Env, nd *node.Node) {
	if env.Spec.Stack.IC {
		rt.adapters[nd.Index].Bind(nd.Vote)
		nd.Intercept.SetVerifier(rt.adapters[nd.Index].Verifier())
		return
	}
	rt.build(env, nd)
}

// blackholeSpec assembles the declarative Fig. 7 scenario.
func blackholeSpec(cfg BlackholeConfig) *scenario.Spec {
	stsCfg := sts.Config{}
	voteCfg := vote.Config{}
	if cfg.IC {
		stsCfg = sts.Config{
			Period:          0.9,
			Delta:           2, // ∆STS from the Fig. 7 box
			Authenticate:    true,
			Handshake:       false, // keyed-MAC beacons for sweep scale
			BeaconBaseBytes: 28,
		}
		voteCfg = vote.Config{Mode: vote.Deterministic, L: cfg.L, RoundTimeout: 0.15, Retries: 2}
	}
	spec := &scenario.Spec{
		Name:    "blackhole",
		Nodes:   cfg.Nodes,
		Seed:    cfg.Seed,
		SimTime: cfg.SimTime,
		Topology: scenario.RandomWaypoint{
			Region:   geo.Square(cfg.Region),
			MinSpeed: cfg.Speed,
			MaxSpeed: cfg.Speed,
			Pause:    cfg.Pause,
		},
		Stack: scenario.Stack{
			Radio:        radio.Default80211(),
			MAC:          mac.Default80211(),
			Energy:       energy.NS2Default(),
			IC:           cfg.IC,
			STS:          stsCfg,
			Vote:         voteCfg,
			MaxL:         max(2, cfg.L),
			SigWireBytes: 128, // 1024-bit keys per the Fig. 7 box
			Tracer:       cfg.Tracer,
			Components:   []scenario.Component{newAODVRouting(cfg.Nodes)},
		},
		Traffic: &traffic.CBR{
			Connections: cfg.Connections,
			Rate:        cfg.Rate,
			PacketBytes: cfg.PacketBytes,
			From:        cfg.TrafficFrom,
		},
	}
	// Adversary: an explicit campaign, or the legacy Malicious/GrayProb
	// knobs routed through the equivalent preset. Either way the campaign
	// draws Count-selected attackers from the traffic permutation's tail,
	// and fault RNG streams split off the seed exactly as the hand-wired
	// code did, so the legacy path is reproduced bit for bit.
	camp := cfg.Campaign
	if camp == nil && cfg.Malicious > 0 {
		var c faults.Campaign
		if cfg.GrayProb > 0 {
			c = faults.GrayholePreset(cfg.Malicious, cfg.GrayProb)
		} else {
			c = faults.BlackholePreset(cfg.Malicious)
		}
		camp = &c
	}
	if camp != nil {
		spec.Adversary = scenario.CampaignAdversary{Campaign: camp}
	}
	return spec
}

// RunBlackhole executes one Fig. 7 simulation run. The config has no shard
// count: random-waypoint mobility, CBR traffic and fault campaigns each
// keep the replica on one kernel.
func RunBlackhole(cfg BlackholeConfig) (BlackholeResult, error) {
	res, err := scenario.Run(blackholeSpec(cfg))
	if err != nil {
		return BlackholeResult{}, fmt.Errorf("experiment: %w", err)
	}
	return BlackholeResult{
		Sent:             res.Sent,
		Received:         res.Received,
		ReceivedCorrupt:  res.Corrupt,
		Throughput:       res.ThroughputPct,
		EnergyPerNode:    res.EnergyPerNode,
		FaultsInjected:   res.Faults.Injected,
		FaultsSuppressed: res.Faults.Suppressed,
		FaultsLeaked:     res.Faults.Leaked,
		VerifiesAvoided:  res.VoteMemoHits,
	}, nil
}

// corruptMark prefixes CBR payloads mangled by a corrupt fault, so the
// sink can tell leaked corruption from intact delivery.
const corruptMark = scenario.CorruptMark

// corruptPayload is the campaign fabric's Mutate hook: it extends the
// corrupt fault to AODV data payloads (the faults package itself only
// knows signature-bearing protocol messages). Copy-on-write — Data is a
// value and the string payload is immutable.
func corruptPayload(e link.Env, _ *sim.RNG) (link.Env, bool) {
	d, ok := e.Msg.(aodv.Data)
	if !ok {
		return e, false
	}
	s, ok := d.Payload.(string)
	if !ok || strings.HasPrefix(s, corruptMark) {
		return e, false
	}
	d.Payload = corruptMark + s
	e.Msg = d
	return e, true
}
