package aodv

import (
	"errors"
	"fmt"
	"sort"

	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// Config parameterizes the router.
type Config struct {
	// ActiveRouteTimeout is how long an unused route stays valid.
	ActiveRouteTimeout sim.Duration
	// RouteDiscoveryTimeout bounds one RREQ attempt.
	RouteDiscoveryTimeout sim.Duration
	// RreqRetries is how many times a discovery is re-flooded.
	RreqRetries int
	// MaxQueuedPerDst bounds the packets buffered while discovering.
	MaxQueuedPerDst int
}

// DefaultConfig returns AODV-typical timing.
func DefaultConfig() Config {
	return Config{
		ActiveRouteTimeout:    10,
		RouteDiscoveryTimeout: 1,
		RreqRetries:           2,
		MaxQueuedPerDst:       16,
	}
}

// Deps wires the router into a node.
type Deps struct {
	ID   link.NodeID
	K    *sim.Kernel
	Link *link.Service
	RNG  *sim.RNG
}

// route is one forwarding-table entry. Invalidated entries are kept (with
// valid = false) so their sequence numbers survive into RERRs and route
// requests, as RFC 3561 requires.
type route struct {
	nextHop  link.NodeID
	dstSeq   uint32
	seqKnown bool
	hops     int
	expires  sim.Time
	valid    bool
}

// discovery tracks an in-progress route request.
type discovery struct {
	dst     link.NodeID
	retries int
	timer   *sim.Timer
	queue   []Data
}

// Stats counts routing activity.
type Stats struct {
	DataOriginated uint64
	DataDelivered  uint64 // delivered locally (this node is destination)
	DataForwarded  uint64
	DataDropped    uint64
	RreqOriginated uint64
	RreqForwarded  uint64
	RrepOriginated uint64
	RrepForwarded  uint64
	RerrSent       uint64
	BlackHoleDrops uint64 // data maliciously dropped (attacker only)
	ForgedRreps    uint64 // fabricated route replies sent (attacker only)
}

// Router is one node's AODV entity. Not safe for concurrent use.
type Router struct {
	cfg  Config
	deps Deps

	seq     uint32
	rreqID  uint32
	routes  map[link.NodeID]*route
	seen    link.SeenSet // (originator, RREQ ID) of every request heard or sent
	pending map[link.NodeID]*discovery
	dataSeq uint64

	onDeliver func(Data)

	// blackHole marks this router as the §5.1 adversary: it answers every
	// RREQ with a forged high-sequence RREP and silently drops all transit
	// data.
	blackHole bool
	// grayProb, when positive, makes the router a gray hole: it behaves
	// maliciously only with this probability per opportunity (§5.1 calls
	// this the attack variation network-wide detectors cannot catch).
	grayProb float64
	grayRNG  *sim.RNG

	// Stats exposes counters to the experiment harness.
	Stats Stats
}

// ErrNoRoute is reported (via drop counters) when discovery fails;
// exported for tests that assert on wrapped errors in callbacks.
var ErrNoRoute = errors.New("aodv: no route to destination")

// New returns a router.
func New(cfg Config, deps Deps) (*Router, error) {
	if cfg.ActiveRouteTimeout <= 0 || cfg.RouteDiscoveryTimeout <= 0 {
		return nil, fmt.Errorf("aodv: timeouts must be positive")
	}
	r := &Router{
		cfg:     cfg,
		deps:    deps,
		routes:  make(map[link.NodeID]*route),
		pending: make(map[link.NodeID]*discovery),
	}
	deps.Link.OnSendFailed(r.onSendFailed)
	return r, nil
}

// OnDeliver registers the upcall for data addressed to this node.
func (r *Router) OnDeliver(fn func(Data)) { r.onDeliver = fn }

// SetBlackHole switches the router into (or out of) black-hole mode.
func (r *Router) SetBlackHole(on bool) { r.blackHole = on }

// SetGrayHole makes the router misbehave with probability p per
// opportunity (forged RREP per route request, silent drop per transit
// packet) and behave correctly otherwise. p = 0 restores correct
// behaviour.
func (r *Router) SetGrayHole(p float64, rng *sim.RNG) {
	r.grayProb = p
	r.grayRNG = rng
}

// MisbehaviorCount reports how many attack actions this router has taken
// (forged route replies plus maliciously dropped packets). It satisfies
// the fault-injection subsystem's RouterCtl interface and feeds its
// coverage counters.
func (r *Router) MisbehaviorCount() uint64 {
	return r.Stats.ForgedRreps + r.Stats.BlackHoleDrops
}

// misbehaving samples whether this opportunity is attacked.
func (r *Router) misbehaving() bool {
	if r.blackHole {
		return true
	}
	if r.grayProb > 0 && r.grayRNG != nil {
		return r.grayRNG.Float64() < r.grayProb
	}
	return false
}

// Seq returns the router's current sequence number (for tests).
func (r *Router) Seq() uint32 { return r.seq }

// HasRoute reports whether a valid route to dst exists (for tests).
func (r *Router) HasRoute(dst link.NodeID) bool {
	rt, ok := r.routes[dst]
	return ok && rt.valid && r.deps.K.Now() < rt.expires
}

// NextHop returns the current next hop toward dst, if a valid route exists.
func (r *Router) NextHop(dst link.NodeID) (link.NodeID, bool) {
	rt, ok := r.routes[dst]
	if !ok || !rt.valid || r.deps.K.Now() >= rt.expires {
		return 0, false
	}
	return rt.nextHop, true
}

// Send routes an application payload toward dst, triggering route
// discovery if needed.
func (r *Router) Send(dst link.NodeID, payload any, bytes int) error {
	r.dataSeq++
	r.Stats.DataOriginated++
	d := Data{Src: r.deps.ID, Dst: dst, Seq: r.dataSeq, Payload: payload, Bytes: bytes}
	r.routeOrQueue(d)
	return nil
}

func (r *Router) routeOrQueue(d Data) {
	if d.Dst == r.deps.ID {
		r.deliver(d)
		return
	}
	if rt, ok := r.routes[d.Dst]; ok && rt.valid && r.deps.K.Now() < rt.expires {
		rt.expires = r.deps.K.Now() + r.cfg.ActiveRouteTimeout
		_ = r.deps.Link.SendRaw(rt.nextHop, d)
		return
	}
	r.queueAndDiscover(d)
}

func (r *Router) queueAndDiscover(d Data) {
	disc, ok := r.pending[d.Dst]
	if !ok {
		disc = &discovery{dst: d.Dst}
		disc.timer = sim.NewTimer(r.deps.K, func() { r.onDiscoveryTimeout(disc) })
		r.pending[d.Dst] = disc
		r.floodRREQ(d.Dst)
		disc.timer.Reset(r.cfg.RouteDiscoveryTimeout)
	}
	if len(disc.queue) >= r.cfg.MaxQueuedPerDst {
		r.Stats.DataDropped++
		return
	}
	disc.queue = append(disc.queue, d)
}

func (r *Router) floodRREQ(dst link.NodeID) {
	r.seq++
	r.rreqID++
	r.Stats.RreqOriginated++
	req := RREQ{
		Orig:    r.deps.ID,
		OrigSeq: r.seq,
		Dst:     dst,
		ID:      r.rreqID,
	}
	if rt, ok := r.routes[dst]; ok && rt.seqKnown {
		req.DstSeq = rt.dstSeq
		req.SeqKnown = true
	}
	r.seen.Mark(r.deps.ID, uint64(r.rreqID))
	_ = r.deps.Link.SendRaw(link.BroadcastID, req)
}

func (r *Router) onDiscoveryTimeout(disc *discovery) {
	if _, still := r.pending[disc.dst]; !still {
		return
	}
	if r.HasRoute(disc.dst) {
		r.flushPending(disc.dst)
		return
	}
	if disc.retries < r.cfg.RreqRetries {
		disc.retries++
		r.rreqID++
		r.Stats.RreqOriginated++
		req := RREQ{Orig: r.deps.ID, OrigSeq: r.seq, Dst: disc.dst, ID: r.rreqID}
		r.seen.Mark(r.deps.ID, uint64(r.rreqID))
		_ = r.deps.Link.SendRaw(link.BroadcastID, req)
		disc.timer.Reset(r.cfg.RouteDiscoveryTimeout)
		return
	}
	// Give up: drop the queue.
	r.Stats.DataDropped += uint64(len(disc.queue))
	disc.timer.Stop()
	delete(r.pending, disc.dst)
}

func (r *Router) deliver(d Data) {
	r.Stats.DataDelivered++
	if r.onDeliver != nil {
		r.onDeliver(d)
	}
}

// HandleEnv processes AODV traffic; it reports whether the envelope was
// consumed.
func (r *Router) HandleEnv(e link.Env) bool {
	switch m := e.Msg.(type) {
	case RREQ:
		r.onRREQ(e, m)
	case RREP:
		r.onRREP(e.From, m)
	case RERR:
		r.onRERR(e.From, m)
	case Data:
		r.onData(e, m)
	default:
		return false
	}
	return true
}

// updateRoute installs or refreshes a table entry if the new information is
// fresher (higher sequence) or equally fresh but shorter. A known entry is
// rewritten in place: every reader looks its entry up afresh and keeps no
// *route across a call that may update it.
func (r *Router) updateRoute(dst, nextHop link.NodeID, dstSeq uint32, seqKnown bool, hops int) {
	now := r.deps.K.Now()
	rt, ok := r.routes[dst]
	if ok && rt.valid && now < rt.expires && rt.seqKnown && seqKnown {
		if dstSeq < rt.dstSeq || (dstSeq == rt.dstSeq && hops >= rt.hops) {
			return // stale or no better
		}
	}
	if !ok {
		rt = new(route)
		r.routes[dst] = rt
	}
	*rt = route{
		nextHop:  nextHop,
		dstSeq:   dstSeq,
		seqKnown: seqKnown,
		hops:     hops,
		expires:  now + r.cfg.ActiveRouteTimeout,
		valid:    true,
	}
}

// onRREQ handles request m, the message of envelope e, whose hop count is
// the number of times m was re-flooded before e.
func (r *Router) onRREQ(e link.Env, m RREQ) {
	from := e.From
	if !r.seen.Mark(m.Orig, uint64(m.ID)) {
		return
	}

	if r.misbehaving() {
		// §5.1: the attacker replies immediately, advertising a fresher
		// route (large destination sequence number) one hop away. The
		// forged RREP goes out raw — a compromised node bypasses its own
		// interceptor — so in the inner-circle configuration receivers
		// will suppress it.
		forged := RREP{
			Orig:     m.Orig,
			Dst:      m.Dst,
			DstSeq:   m.DstSeq + 1000,
			HopCount: 1,
			NextHop:  from,
		}
		r.Stats.RrepOriginated++
		r.Stats.ForgedRreps++
		_ = r.deps.Link.SendRaw(from, forged)
		return
	}

	// Reverse route toward the originator.
	r.updateRoute(m.Orig, from, m.OrigSeq, true, e.Hops+1)

	if m.Dst == r.deps.ID {
		// Destination-only replies: bump our sequence number and answer.
		if m.SeqKnown && m.DstSeq > r.seq {
			r.seq = m.DstSeq
		}
		r.seq++
		r.sendRREP(RREP{
			Orig:     m.Orig,
			Dst:      r.deps.ID,
			DstSeq:   r.seq,
			HopCount: 0,
			NextHop:  from,
		})
		return
	}
	// Re-flood the request as received.
	r.Stats.RreqForwarded++
	_ = r.deps.Link.Forward(link.BroadcastID, e)
}

// sendRREP emits an RREP through the filtered link path, so the
// inner-circle interceptor (when installed) redirects it into the voting
// service. Without an interceptor it goes straight to the radio.
func (r *Router) sendRREP(rep RREP) {
	r.Stats.RrepOriginated++
	_ = r.deps.Link.Send(rep.NextHop, rep)
}

// onRREP handles a reply arriving from the downstream node.
func (r *Router) onRREP(from link.NodeID, m RREP) {
	r.AcceptRREP(from, m)
}

// AcceptRREP installs the forward route carried by an RREP and, when this
// node is not the requester, forwards the reply toward the originator. It
// is exported because in the inner-circle configuration the voting
// adapter — not the raw link — delivers approved RREPs.
func (r *Router) AcceptRREP(from link.NodeID, m RREP) {
	// Forward route to the destination via the node that handed us the
	// RREP.
	r.updateRoute(m.Dst, from, m.DstSeq, true, m.HopCount+1)
	if m.Orig == r.deps.ID {
		r.flushPending(m.Dst)
		return
	}
	// Forward along the reverse route toward the originator.
	rt, ok := r.routes[m.Orig]
	if !ok || !rt.valid || r.deps.K.Now() >= rt.expires {
		return
	}
	m.HopCount++
	m.NextHop = rt.nextHop
	r.Stats.RrepForwarded++
	_ = r.deps.Link.Send(rt.nextHop, m)
}

func (r *Router) flushPending(dst link.NodeID) {
	disc, ok := r.pending[dst]
	if !ok {
		return
	}
	disc.timer.Stop()
	delete(r.pending, dst)
	for _, d := range disc.queue {
		r.routeOrQueue(d)
	}
}

// onData handles data packet d, the message of envelope e, forwarding it
// as received when this node is not its destination.
func (r *Router) onData(e link.Env, d Data) {
	if d.Dst == r.deps.ID {
		r.deliver(d)
		return
	}
	if r.misbehaving() {
		// Transit traffic is silently absorbed.
		r.Stats.BlackHoleDrops++
		return
	}
	rt, ok := r.routes[d.Dst]
	if !ok || !rt.valid || r.deps.K.Now() >= rt.expires {
		r.Stats.DataDropped++
		r.sendRERR(d.Dst)
		return
	}
	rt.expires = r.deps.K.Now() + r.cfg.ActiveRouteTimeout
	r.Stats.DataForwarded++
	_ = r.deps.Link.Forward(rt.nextHop, e)
}

// onRERR invalidates the route through the reporting neighbour and
// propagates the error upstream (one re-broadcast per invalidation), so
// the breakage reaches traffic sources in a single wave — the RFC 3561
// precursor mechanism, approximated by broadcast.
func (r *Router) onRERR(from link.NodeID, m RERR) {
	rt, ok := r.routes[m.Dst]
	if !ok || !rt.valid {
		return
	}
	if rt.nextHop != from {
		return // our path does not go through the reporter
	}
	if m.SeqKnown && rt.seqKnown && m.DstSeq < rt.dstSeq {
		return // we already know of a fresher route
	}
	seq := m.DstSeq
	if !m.SeqKnown {
		seq = rt.dstSeq + 1
	}
	r.invalidate(m.Dst, seq)
	r.Stats.RerrSent++
	_ = r.deps.Link.SendRaw(link.BroadcastID, m)
}

// invalidate marks the route to dst broken, remembering the (possibly
// bumped) destination sequence number for future RERRs/RREQs.
func (r *Router) invalidate(dst link.NodeID, seq uint32) {
	rt, ok := r.routes[dst]
	if !ok {
		r.routes[dst] = &route{dstSeq: seq, seqKnown: true}
		return
	}
	rt.valid = false
	if seq > rt.dstSeq {
		rt.dstSeq = seq
	}
	rt.seqKnown = true
}

// sendRERR notifies neighbours that dst became unreachable here, with a
// sequence number one past the freshest we knew (or flagged unknown).
func (r *Router) sendRERR(dst link.NodeID) {
	var seq uint32
	known := false
	if rt, ok := r.routes[dst]; ok && rt.seqKnown {
		seq = rt.dstSeq + 1
		known = true
	}
	r.invalidate(dst, seq)
	r.Stats.RerrSent++
	_ = r.deps.Link.SendRaw(link.BroadcastID, RERR{Dst: dst, DstSeq: seq, SeqKnown: known})
}

// onSendFailed reacts to MAC-level delivery failure: the link to the next
// hop broke, so every route through it is invalidated and reported.
func (r *Router) onSendFailed(e link.Env) {
	broken := e.To
	// Deterministic order: map iteration would make the RERR emission
	// sequence (and thus the whole simulation trace) seed-unstable.
	var dsts []link.NodeID
	for dst, rt := range r.routes {
		if rt.valid && rt.nextHop == broken {
			dsts = append(dsts, dst)
		}
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		r.sendRERR(dst)
	}
	if _, ok := e.Msg.(Data); ok {
		r.Stats.DataDropped++
	}
}
