// Package scenario is the declarative experiment layer: a Spec names a
// topology, a node stack, a traffic program and an adversary, and Run
// turns it into one deterministic replica — build, wire, inject, run,
// harvest — the exact sequence the hand-wired harnesses used to repeat.
//
// A component reaches each node through one hook, Component.Attach, run
// inside node.Build in both modes; what it returns is the node's
// Inner-circle Callbacks (the paper's check, fuseVal, onAgreed). Validator
// and Wirer are the optional replica-wide hooks.
//
// Determinism contract (the RNG-stream naming convention every scenario
// relies on): all replica randomness derives from sim.NewRNG(Spec.Seed)
// by pure label splits, so streams are independent and their creation
// order is free. The runner owns these labels:
//
//	"placement" — Topology.Place draws, in node order
//	"traffic"   — the traffic Program's draws (endpoints at Plan time,
//	              per-flow jitters at Start time)
//	"starts"    — jittered service starts, in node order
//	"faults"    — adversary streams (split off the root seed stream by
//	              faults.Apply; gray streams are SplitN("gray", i))
//	"node"/i    — per-node streams (split by node.Build; components split
//	              their per-node streams off nd.RNG, e.g. "aodv",
//	              "diffusion", "sensor")
//
// Only draw order within a stream and kernel event scheduling order are
// significant; both are fixed by Run's phase sequence below.
package scenario

import (
	"errors"
	"fmt"
	"io"

	"innercircle/internal/energy"
	"innercircle/internal/faults"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/trace"
	"innercircle/internal/traffic"
	"innercircle/internal/vote"
)

// Spec declares one simulation scenario. Specs are cheap values: sweeps
// construct one per replica and hand it to Run.
type Spec struct {
	Name    string
	Nodes   int
	Seed    int64
	SimTime sim.Time

	// Shards requests a partitioned replica (conservative-lookahead
	// parallel kernels; see sim.ShardSet), at most MaxShards; 0 or 1 runs
	// the plain single-kernel replica. The count is an upper bound: this
	// field is the only way to ask, and planShards the only place the count
	// is lowered (among its rules: one kernel when the core budget leaves
	// one executor slot); the Result carries the executed count and the
	// reason. Results are identical at every shard count either way.
	Shards int
	// ShardStats, when non-nil, receives one Write per replica that asked
	// for more than one shard: its per-shard utilization table and, when it
	// ran on fewer shards than asked, the reason. Diagnostic only; a writer
	// shared by replicas on the parallel pool must take concurrent Writes.
	ShardStats io.Writer

	Topology  Topology
	Stack     Stack
	Traffic   traffic.Program // optional; nil runs protocol traffic only
	Adversary Adversary       // optional; nil runs a clean replica

	// Churn schedules mid-run membership transitions over the inner
	// circle (see Churn). Optional; nil runs a fixed-membership replica.
	// Active churn keeps the replica on a single kernel (ReasonChurn).
	Churn *Churn
}

// Stack assembles the per-node protocol stack: the node.Config layers
// plus the scenario's application components.
type Stack struct {
	Radio  radio.Params
	MAC    mac.Params
	Energy energy.Params

	// IC installs the inner-circle components; STS and Vote configure the
	// topology and voting services (see node.Config).
	IC   bool
	STS  sts.Config
	Vote vote.Config
	MaxL int

	// SigWireBytes is the emulated signature wire size.
	SigWireBytes int
	// Tracer, when non-nil, taps all wire traffic. A tracer belongs to
	// exactly one replica.
	Tracer *trace.Tracer
	// STSStart controls topology-service startup.
	STSStart STSStart

	// Components are the scenario's application-layer parts, attached to
	// every node in order. A component may additionally implement Wirer
	// or Validator, and keeps its own metrics: the Result holds only what
	// the runner measures.
	Components []Component
}

// STSStart configures how the topology services start.
type STSStart struct {
	// Jitter, when positive, staggers each node's STS start uniformly in
	// [0, Jitter) — drawn from the "starts" stream in node order — to
	// avoid a synchronized beacon collision storm at t=0. Zero starts
	// every service synchronously before the first event.
	Jitter sim.Duration
}

// Component is a per-node application part of a scenario (a router, a
// sensing app). node.Build calls Attach for every node in node order (all
// components, in Spec order, per node), in both modes, once every node's
// link, interceptor and topology service exist and before the node's
// voting service does. env.Net is nil during Attach: use nd.K. Each
// attempt of a replica (see Run) calls it afresh. The result is the node's
// vote callbacks, nil for none; a second component returning callbacks for
// the same node fails the replica, and with Stack.IC off they are ignored.
type Component interface {
	Attach(env *Env, nd *node.Node) *vote.Callbacks
}

// Wirer components get a once-per-attempt hook after the network is built
// and every Attach has run, before the traffic plan — the place to
// publish replica-wide wiring (the unicast send path, fault-control
// surfaces) and to set per-attempt state afresh.
type Wirer interface {
	Wire(env *Env)
}

// Validator components veto invalid Specs (population floors, parameter
// gaps) before anything is built.
type Validator interface {
	Validate(s *Spec) error
}

// Env is the replica context the runner threads through every hook.
type Env struct {
	Spec *Spec
	// Net is the replica's network; nil during Component.Attach.
	Net       *node.Network
	Positions []geo.Point
	// Sink tallies application-sink deliveries; sink components feed it
	// and the runner folds it into the Result.
	Sink SinkTally

	seed      *sim.RNG
	unicast   func(src, dst int, payload any, sizeBytes int)
	routerCtl func(i int) faults.RouterCtl
	mutate    func(e link.Env, rng *sim.RNG) (link.Env, bool)
	campaign  *faults.Applied // CampaignAdversary's; Run reports its coverage
	err       error
}

// K returns the replica's simulation kernel.
func (e *Env) K() *sim.Kernel { return e.Net.K }

// SeedStream returns the named stream split off the scenario seed.
// Splits are pure, so components may call this at any time without
// perturbing other streams; draw order within the stream is what counts.
func (e *Env) SeedStream(label string) *sim.RNG { return e.seed.Split(label) }

// SetUnicast publishes the application send path traffic programs use.
func (e *Env) SetUnicast(fn func(src, dst int, payload any, sizeBytes int)) { e.unicast = fn }

// SetRouterCtl publishes the per-node routing attack surface for
// campaign adversaries. The accessor must return nil (an untyped nil) for
// nodes without a router.
func (e *Env) SetRouterCtl(fn func(i int) faults.RouterCtl) { e.routerCtl = fn }

// SetMutate publishes the payload-corruption hook campaign adversaries
// hand to the fault fabric.
func (e *Env) SetMutate(fn func(e link.Env, rng *sim.RNG) (link.Env, bool)) { e.mutate = fn }

// Fail records a component failure. Attach, which has no error return,
// reports through it; the runner checks once the build returns and aborts
// the replica with the first recorded error.
func (e *Env) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Validate checks the Spec's static shape: population and duration,
// required parts, component vetoes, and the traffic-reservation versus
// adversary-budget accounting over the node population.
func (s *Spec) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("scenario %q: need at least 1 node, got %d", s.Name, s.Nodes)
	}
	if s.SimTime <= 0 {
		return fmt.Errorf("scenario %q: need positive sim time, got %v", s.Name, s.SimTime)
	}
	if s.Topology == nil {
		return fmt.Errorf("scenario %q: topology required", s.Name)
	}
	if err := ValidShards(s.Shards); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.Churn.validate(s); err != nil {
		return fmt.Errorf("scenario %q: churn: %w", s.Name, err)
	}
	for _, c := range s.Stack.Components {
		if v, ok := c.(Validator); ok {
			if err := v.Validate(s); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
	}
	reserved := 0
	if s.Traffic != nil {
		r, err := s.Traffic.Validate(s.Nodes)
		if err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		reserved = r
	}
	budget := 0
	if s.Adversary != nil {
		b, err := s.Adversary.Budget(s.Nodes)
		if err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		budget = b
	}
	if reserved+budget > s.Nodes {
		return fmt.Errorf("scenario %q: %d nodes cannot host %d traffic endpoints + %d adversary targets",
			s.Name, s.Nodes, reserved, budget)
	}
	return nil
}

// Run executes one replica of the scenario and returns its harvest.
//
// Phase order — load-bearing, because it fixes kernel event insertion
// order: validate, place, plan shards, build (every component's Attach
// for each node in turn, inside node.Build), wire, plan traffic, apply
// the adversary, start the topology services, start the traffic plan,
// schedule churn, drive the kernel, harvest.
//
// A sharded attempt that aborts on sim.ErrShardTie is run again with the
// tie reported to planShards, which answers it with a single kernel — one
// cannot tie — and that attempt's result is returned; it rebuilds the
// network, so every Attach and Wire runs again on the same component
// values. Sharding therefore never changes results, only wall-clock time.
// The core tokens planShards takes for a sharded attempt's executor are
// held until Run returns, tie rerun included, whatever the outcome.
func Run(s *Spec) (*Result, error) {
	var cores int
	defer func() { sim.ReleaseCores(cores) }()
	res, err := runOnce(s, false, &cores)
	if errors.Is(err, sim.ErrShardTie) {
		res, err = runOnce(s, true, &cores)
	}
	return res, err
}

// runOnce executes one replica attempt; tied says the previous attempt
// aborted on a cross-shard timestamp tie. The core tokens its plan holds
// are added to *cores for Run to release.
func runOnce(s *Spec, tied bool, cores *int) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seed := sim.NewRNG(s.Seed)
	positions := s.Topology.Place(s.Nodes, seed.Split("placement"))
	if len(positions) != s.Nodes {
		return nil, fmt.Errorf("scenario %q: topology placed %d nodes, want %d", s.Name, len(positions), s.Nodes)
	}
	shard := planShards(s, positions, seed, tied)
	*cores += shard.slots - 1
	env := &Env{Spec: s, Positions: positions, seed: seed}

	ncfg := node.Config{
		N:      s.Nodes,
		Seed:   s.Seed,
		Radio:  s.Stack.Radio,
		MAC:    s.Stack.MAC,
		Energy: s.Stack.Energy,
		Mobility: func(i int, rng *sim.RNG) mobility.Model {
			return s.Topology.Model(i, positions[i], rng)
		},
		IC:           s.Stack.IC,
		STS:          s.Stack.STS,
		Vote:         s.Stack.Vote,
		MaxL:         s.Stack.MaxL,
		SigWireBytes: s.Stack.SigWireBytes,
		Tracer:       s.Stack.Tracer,
		Shards:       shard.shards,
		ShardOf:      shard.ownerOf,
		ShardBorder:  shard.borderOf,
		Callbacks:    func(nd *node.Node) vote.Callbacks { return attach(env, nd) },
	}
	net, err := node.Build(ncfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: build: %w", s.Name, err)
	}
	env.Net = net
	if env.err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, env.err)
	}
	for _, c := range s.Stack.Components {
		if w, ok := c.(Wirer); ok {
			w.Wire(env)
		}
	}

	var plan traffic.Plan
	var order []int
	if s.Traffic != nil {
		tdeps := traffic.Deps{
			K:       net.K,
			RNG:     seed.Split("traffic"),
			N:       s.Nodes,
			End:     s.SimTime,
			Unicast: env.unicast,
		}
		if net.Set != nil {
			tdeps.Set = net.Set
			tdeps.NodeShard = func(i int) int { return shard.ownerOf(positions[i]) }
		}
		plan, err = s.Traffic.Plan(tdeps)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if o, ok := plan.(traffic.Orderer); ok {
			order = o.Order()
		}
	}

	if s.Adversary != nil {
		if err := s.Adversary.Apply(env, order); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}

	if s.Stack.STSStart.Jitter > 0 {
		net.StartSTSJittered(seed.Split("starts"), s.Stack.STSStart.Jitter)
	} else {
		net.StartSTS()
	}
	if plan != nil {
		plan.Start()
	}
	var churn *churnDriver
	if s.Churn.active() {
		churn, err = applyChurn(s.Churn, env)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: churn: %w", s.Name, err)
		}
	}

	if err := net.RunSlots(s.SimTime, shard.slots); err != nil {
		return nil, fmt.Errorf("scenario %q: run: %w", s.Name, err)
	}

	res := &Result{
		Received:      env.Sink.Received,
		Corrupt:       env.Sink.Corrupt,
		EnergyPerNode: net.TotalEnergy() / float64(s.Nodes),
		Shards:        shard.shards,
		ShardReason:   shard.reason,
	}
	if sender, ok := plan.(traffic.Sender); ok {
		res.Sent = sender.Sent()
	}
	if res.Sent > 0 {
		res.ThroughputPct = 100 * float64(res.Received) / float64(res.Sent)
	}
	for _, nd := range net.Nodes {
		if nd.Vote != nil {
			res.VoteMemoHits += nd.Vote.Stats.MemoHits
		}
	}
	if env.campaign != nil {
		res.Faults = coverage(env)
	}
	if churn != nil {
		res.Churn = churn.outcome()
	}
	if s.ShardStats != nil && s.Shards > 1 {
		var util []sim.ShardUtil
		if net.Set != nil {
			util = net.Set.Utilization()
		}
		writeShardStats(s.ShardStats, s.Name, res, s.Shards, util)
	}
	return res, nil
}

// attach runs every component's Attach on node nd, in Spec order, and
// returns the node's vote callbacks: the one component's that returned
// any, or none. A second component returning callbacks for the same node
// fails the replica.
func attach(env *Env, nd *node.Node) vote.Callbacks {
	var cbs *vote.Callbacks
	for _, c := range env.Spec.Stack.Components {
		switch got := c.Attach(env, nd); {
		case got != nil && cbs != nil:
			env.Fail(fmt.Errorf("node %d: more than one component returns vote callbacks", nd.Index))
		case got != nil:
			cbs = got
		}
	}
	if cbs == nil {
		return vote.Callbacks{}
	}
	return *cbs
}
