package faults

import (
	"innercircle/internal/link"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

// stage is one wire-fault instance bound to one node. Each stage owns a
// private RNG stream split from the fabric seed by (entry, node), so
// adding or removing an entry never perturbs another entry's draws.
type stage struct {
	entry int // index into the campaign, for the injection counters
	kind  Kind
	p     Params
	win   Window
	rng   *sim.RNG

	// reorder state: the held envelope and a generation counter that
	// invalidates the pending flush when an overtaking message releases
	// the envelope first.
	held    *link.Env
	heldGen int

	// spoof state.
	spoofAs  int // victim node; -1 draws one per beacon
	numNodes int // for victim draws
	self     link.NodeID
}

// Injector is one node's fault pipeline, installed as its link tap.
// Outbound stages run in campaign-entry order as a message is handed to
// the MAC; inbound stages likewise before delivery. It is not safe for
// concurrent use — like every simulation component it lives on a single
// replica's thread.
type Injector struct {
	k        *sim.Kernel
	out      []*stage
	in       []*stage
	injected []uint64 // shared per-entry counters, owned by Applied
	mutate   func(e link.Env, rng *sim.RNG) (link.Env, bool)
}

var _ link.Tap = (*Injector)(nil)

// Outbound implements link.Tap.
func (inj *Injector) Outbound(e link.Env, emit func(link.Env)) {
	inj.run(inj.out, 0, e, emit)
}

// Inbound implements link.Tap.
func (inj *Injector) Inbound(e link.Env, emit func(link.Env)) {
	inj.run(inj.in, 0, e, emit)
}

// run threads e through stages[i:]. Each stage forwards by calling next
// zero or more times, immediately or from a later kernel event.
func (inj *Injector) run(stages []*stage, i int, e link.Env, emit func(link.Env)) {
	if i >= len(stages) {
		emit(e)
		return
	}
	st := stages[i]
	next := func(e2 link.Env) { inj.run(stages, i+1, e2, emit) }
	if !st.win.active(inj.k.Now()) {
		next(e)
		return
	}
	switch st.kind {
	case Crash:
		// The node is down: everything is swallowed, both directions.
		inj.injected[st.entry]++

	case Drop:
		if st.rng.Float64() < st.p.P {
			inj.injected[st.entry]++
			return
		}
		next(e)

	case Delay:
		if !st.hit() {
			next(e)
			return
		}
		inj.injected[st.entry]++
		d := sim.Duration(st.rng.Uniform(st.p.MinDelay, st.p.MaxDelay))
		inj.k.ScheduleFire(d, func() { next(e) })

	case Duplicate:
		if !st.hit() {
			next(e)
			return
		}
		inj.injected[st.entry]++
		copies := st.p.Copies
		if copies == 0 {
			copies = 1
		}
		next(e)
		for c := 0; c < copies; c++ {
			next(e)
		}

	case Corrupt:
		if !st.hit() {
			next(e)
			return
		}
		if e2, ok := inj.corrupt(e, st.rng); ok {
			inj.injected[st.entry]++
			next(e2)
			return
		}
		next(e)

	case Reorder:
		if st.held != nil {
			// A later message overtakes the held one: emit it first, then
			// release.
			held := *st.held
			st.held = nil
			st.heldGen++
			next(e)
			next(held)
			return
		}
		if !st.hit() {
			next(e)
			return
		}
		inj.injected[st.entry]++
		held := e
		st.held = &held
		gen := st.heldGen
		hold := st.p.Hold
		if hold == 0 {
			hold = 0.1
		}
		inj.k.ScheduleFire(sim.Duration(hold), func() {
			// Nothing overtook the held message: release it late.
			if st.heldGen != gen || st.held == nil {
				return
			}
			e2 := *st.held
			st.held = nil
			st.heldGen++
			next(e2)
		})

	case Spoof:
		b, ok := e.Msg.(sts.BeaconMsg)
		if !ok || e.From != st.self {
			next(e)
			return
		}
		victim := st.spoofAs
		if victim < 0 {
			// Any node but ourselves.
			victim = (int(st.self) + 1 + st.rng.Intn(st.numNodes-1)) % st.numNodes
		}
		inj.injected[st.entry]++
		// Impersonate the victim with a far-future sequence number (a
		// replay-counter attack): unauthenticated receivers adopt the
		// forged beacon and then reject the victim's genuine ones as
		// stale; authenticated receivers reject the forgery, whose stale
		// signature cannot verify under the victim's key.
		b.From = link.NodeID(victim)
		b.Seq += 1 << 32
		e.From = link.NodeID(victim)
		e.Msg = b
		next(e)

	default:
		next(e)
	}
}

// hit draws the stage's per-message probability (default 1).
func (st *stage) hit() bool {
	return st.p.P == 0 || st.rng.Float64() < st.p.P
}

// corrupt flips one bit in a signature-bearing field of the message,
// modelling the adversarial channel noise of Hoza & Schulman. The
// fabric's Mutate hook runs first, so experiments can extend corruption
// to message types this package must not know about (e.g. application
// payloads). Envelopes are corrupted copy-on-write: the original message
// and its byte slices are never modified, since other receivers of the
// same broadcast share them.
func (inj *Injector) corrupt(e link.Env, rng *sim.RNG) (link.Env, bool) {
	if inj.mutate != nil {
		if e2, ok := inj.mutate(e, rng); ok {
			return e2, true
		}
	}
	switch m := e.Msg.(type) {
	case vote.AgreedMsg:
		if len(m.Sig.Data) == 0 {
			return e, false
		}
		m.Sig.Data = flipBit(m.Sig.Data, rng)
		e.Msg = m
		return e, true
	case vote.AckMsg:
		if len(m.Partial.Data) == 0 {
			return e, false
		}
		m.Partial.Data = flipBit(m.Partial.Data, rng)
		e.Msg = m
		return e, true
	case vote.ValueMsg:
		if len(m.Value) == 0 {
			return e, false
		}
		m.Value = flipBit(m.Value, rng)
		e.Msg = m
		return e, true
	case sts.BeaconMsg:
		if len(m.Sig) == 0 {
			return e, false
		}
		m.Sig = flipBit(m.Sig, rng)
		e.Msg = m
		return e, true
	}
	return e, false
}

// flipBit returns a copy of data with one RNG-chosen bit inverted.
func flipBit(data []byte, rng *sim.RNG) []byte {
	out := append([]byte(nil), data...)
	bit := rng.Intn(len(out) * 8)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}
