// Package scenario is the declarative experiment layer: a Spec names a
// topology, a node stack, a traffic program and an adversary, and Run
// turns it into one deterministic replica — build, wire, inject, run,
// harvest — the exact sequence the hand-wired harnesses used to repeat.
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
	"innercircle/internal/stats"
	"innercircle/internal/sts"
	"innercircle/internal/trace"
	"innercircle/internal/traffic"
	"innercircle/internal/vote"

	"innercircle/internal/crypto/nsl"
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

	// Keys optionally supplies pre-generated RSA key pairs (length Nodes).
	Keys []*nsl.KeyPair
	// SigWireBytes is the emulated signature wire size.
	SigWireBytes int
	// Tracer, when non-nil, taps all wire traffic. A tracer belongs to
	// exactly one replica.
	Tracer *trace.Tracer
	// STSStart controls topology-service startup.
	STSStart STSStart

	// Components are the scenario's application-layer parts, attached to
	// every node in order. A component may additionally implement
	// Registrar, Wirer, Starter, Harvester or Validator.
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
// sensing app). Attach is called for every node, in node order, after the
// network is built.
type Component interface {
	Attach(env *Env, nd *node.Node)
}

// Registrar components hook into node.Build's voting pass (IC mode): the
// returned callbacks become the node's vote callbacks, and the hook runs
// while the node is being assembled — the only point where application
// state can be closed over by the voting service. At most one component
// per Spec may implement Registrar, and it is only invoked when Stack.IC
// is set.
type Registrar interface {
	Register(env *Env, nd *node.Node) vote.Callbacks
}

// Wirer components get a once-per-replica hook right after the network is
// built, before any Attach call — the place to publish replica-wide
// wiring (the unicast send path, fault-control surfaces).
type Wirer interface {
	Wire(env *Env)
}

// Starter components schedule their startup events after the adversary is
// wired and the topology services are started, before the traffic plan.
type Starter interface {
	Start(env *Env)
}

// Harvester components fold their metrics into the Result after the run.
type Harvester interface {
	Harvest(env *Env, res *Result)
}

// Validator components veto invalid Specs (population floors, parameter
// gaps) before anything is built.
type Validator interface {
	Validate(s *Spec) error
}

// Resetter components drop all replica state at the start of each run
// attempt. A component holding harvest state across hooks must implement
// it if its Spec can run sharded: after a sim.ErrShardTie abort Run makes a
// second attempt with the same Spec — and the same component values — and
// state from the abandoned attempt must not leak into it.
type Resetter interface {
	Reset()
}

// Env is the replica context the runner threads through every hook.
type Env struct {
	Spec      *Spec
	Net       *node.Network
	Positions []geo.Point
	// Sink tallies application-sink deliveries; sink components feed it
	// and the runner folds it into the Result.
	Sink SinkTally

	seed      *sim.RNG
	unicast   func(src, dst int, payload any, sizeBytes int)
	routerCtl func(i int) faults.RouterCtl
	mutate    func(e link.Env, rng *sim.RNG) (link.Env, bool)
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

// Fail records a component failure. Hooks without an error return
// (Register, Attach) report through it; the runner checks after each
// phase and aborts the replica.
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
	registrars := 0
	for _, c := range s.Stack.Components {
		if v, ok := c.(Validator); ok {
			if err := v.Validate(s); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
		if _, ok := c.(Registrar); ok {
			registrars++
		}
	}
	if registrars > 1 {
		return fmt.Errorf("scenario %q: at most one component may provide vote callbacks, got %d", s.Name, registrars)
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
// order: validate, place, build (Registrar hooks fire inside the build's
// voting pass), wire, attach, plan traffic, apply the adversary, start
// the topology services, run component starters, start the traffic plan,
// drive the kernel, harvest.
//
// A sharded attempt that aborts on sim.ErrShardTie is run again with the
// tie reported to planShards, which answers it with a single kernel — one
// cannot tie — and that attempt's result is returned. Sharding therefore
// never changes results, only wall-clock time. The core tokens planShards
// takes for a sharded attempt's executor are held until Run returns, tie
// rerun included, whatever the outcome.
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
	for _, c := range s.Stack.Components {
		if r, ok := c.(Resetter); ok {
			r.Reset()
		}
	}
	seed := sim.NewRNG(s.Seed)
	positions := s.Topology.Place(s.Nodes, seed.Split("placement"))
	if len(positions) != s.Nodes {
		return nil, fmt.Errorf("scenario %q: topology placed %d nodes, want %d", s.Name, len(positions), s.Nodes)
	}
	shard := planShards(s, positions, seed, tied)
	*cores += shard.slots - 1
	env := &Env{Spec: s, Positions: positions, seed: seed}

	var registrar Registrar
	for _, c := range s.Stack.Components {
		if r, ok := c.(Registrar); ok {
			registrar = r
		}
	}
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
		Keys:         s.Stack.Keys,
		SigWireBytes: s.Stack.SigWireBytes,
		Tracer:       s.Stack.Tracer,
		Shards:       shard.shards,
		ShardOf:      shard.ownerOf,
		ShardBorder:  shard.borderOf,
	}
	if s.Stack.IC && registrar != nil {
		ncfg.Callbacks = func(nd *node.Node) vote.Callbacks {
			return registrar.Register(env, nd)
		}
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
	for _, c := range s.Stack.Components {
		for _, nd := range net.Nodes {
			c.Attach(env, nd)
		}
		if env.err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, env.err)
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

	var coverage Harvester
	if s.Adversary != nil {
		coverage, err = s.Adversary.Apply(env, order)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}

	if s.Stack.STSStart.Jitter > 0 {
		net.StartSTSJittered(seed.Split("starts"), s.Stack.STSStart.Jitter)
	} else {
		net.StartSTS()
	}
	for _, c := range s.Stack.Components {
		if st, ok := c.(Starter); ok {
			st.Start(env)
		}
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

	res := &Result{Name: s.Name, Counters: stats.NewCounters(), Gauges: stats.NewGauges(),
		Shards: shard.shards, ShardReason: shard.reason}
	sent := 0
	if sender, ok := plan.(traffic.Sender); ok {
		sent = sender.Sent()
	}
	res.Counters.Add(CtrSent, uint64(sent))
	res.Counters.Add(CtrReceived, uint64(env.Sink.Received))
	res.Counters.Add(CtrReceivedCorrupt, uint64(env.Sink.Corrupt))
	if sent > 0 {
		res.Gauges.Set(GaugeThroughputPct, 100*float64(env.Sink.Received)/float64(sent))
	}
	res.Gauges.Set(GaugeEnergyPerNodeJ, net.TotalEnergy()/float64(s.Nodes))
	if s.Stack.IC {
		var hits, misses uint64
		for _, nd := range net.Nodes {
			if nd.Vote != nil {
				hits += nd.Vote.Stats.MemoHits
				misses += nd.Vote.Stats.MemoMisses
			}
		}
		res.Counters.Add(CtrVoteMemoHits, hits)
		res.Counters.Add(CtrVoteMemoMisses, misses)
	}
	if churn != nil {
		churn.harvest(res)
	}
	var util []sim.ShardUtil
	if net.Set != nil {
		util = net.Set.Utilization()
		harvestShardStats(res, util)
	}
	if s.ShardStats != nil && s.Shards > 1 {
		writeShardStats(s.ShardStats, res, s.Shards, util)
	}
	for _, c := range s.Stack.Components {
		if h, ok := c.(Harvester); ok {
			h.Harvest(env, res)
		}
	}
	if coverage != nil {
		coverage.Harvest(env, res)
	}
	return res, nil
}
