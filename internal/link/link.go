// Package link provides the paper's "Single-hop Communication Service": a
// best-effort unicast/broadcast message service over the MAC. Filters
// (AddFilter) sit between it and the protocols above, where the
// Inner-circle Interceptor (Fig. 1) plugs in; taps (AddTap) stack up from
// the MAC and see every message, for the tracer and fault injection.
package link

import (
	"innercircle/internal/mac"
)

// NodeID identifies a node. It is numerically equal to the node's MAC
// address; correct nodes keep it for life (§2 of the paper).
type NodeID int

// BroadcastID is the destination for single-hop broadcasts.
const BroadcastID NodeID = NodeID(mac.Broadcast)

// Message is anything a protocol sends across one hop. Size is the wire
// size used to compute airtime and energy.
type Message interface {
	Size() int
}

// Env is a message envelope with its single-hop addressing.
type Env struct {
	From NodeID
	To   NodeID // BroadcastID for broadcasts
	Msg  Message
}

// Filter intercepts traffic. Outbound runs before a message is handed to
// the MAC (return false to swallow it); Inbound runs before a received
// message is delivered upward (return false to suppress it). This is the
// hook the Inner-circle Interceptor plugs into.
type Filter interface {
	Outbound(Env) bool
	Inbound(Env) bool
}

// Tap intercepts traffic at the link/MAC boundary — below the filters, so
// it sees every message, including the raw protocol traffic that bypasses
// them. Outbound runs on the way down to the MAC, Inbound on the way up
// from the radio. A tap forwards each envelope by calling emit — the next
// tap's entry, or the MAC or the filter chain past the last one: zero
// times to drop it, twice to duplicate it, later (via a kernel event) to
// delay it, or with a mutated copy to corrupt it. emit stays valid after
// the call returns, so deferred emission is safe.
type Tap interface {
	Outbound(e Env, emit func(Env))
	Inbound(e Env, emit func(Env))
}

// Service is one node's single-hop communication service.
type Service struct {
	mac     *mac.MAC
	id      NodeID
	filters []Filter
	// down and up enter the tap chain: down at its top for outbound
	// traffic, up at its bottom for inbound. Both are nil without taps.
	// top points at the top tap's inbound continuation (at up before any
	// tap), for AddTap to redirect to the tap it adds.
	down, up func(Env)
	top      *func(Env)
	onRecv   func(Env)
	onFailed func(Env)
}

// NewService wraps m. The service installs itself as m's receive handler.
func NewService(m *mac.MAC) *Service {
	s := &Service{mac: m, id: NodeID(m.Addr())}
	s.top = &s.up
	m.OnRecv(s.recv)
	m.OnSendFailed(s.sendFailed)
	return s
}

// ID returns this node's identifier.
func (s *Service) ID() NodeID { return s.id }

// AddFilter appends a filter to the chain. Filters run in insertion order;
// the first to return false stops processing.
func (s *Service) AddFilter(f Filter) { s.filters = append(s.filters, f) }

// OnRecv registers the upward delivery handler.
func (s *Service) OnRecv(fn func(Env)) { s.onRecv = fn }

// OnSendFailed registers the handler invoked when a unicast exhausts MAC
// retries (the link-breakage signal).
func (s *Service) OnSendFailed(fn func(Env)) { s.onFailed = fn }

// AddTap stacks t on top of the taps already added, below every filter:
// the first tap sits next to the MAC. Outbound traffic runs the taps
// top-down, inbound traffic bottom-up. Each level's continuation is built
// here, once, so crossing a tap allocates nothing.
func (s *Service) AddTap(t Tap) {
	down, up := s.down, s.deliver
	if down == nil {
		down = func(e Env) { _ = s.transmit(e) }
	}
	s.down = func(e Env) { t.Outbound(e, down) }
	*s.top = func(e Env) { t.Inbound(e, up) }
	s.top = &up
}

// Send transmits msg to the given destination (BroadcastID for broadcast).
// Outbound filters may swallow the message, which is not an error: the
// interceptor redirecting a message into the voting service looks like
// this.
func (s *Service) Send(to NodeID, msg Message) error {
	env := Env{From: s.id, To: to, Msg: msg}
	for _, f := range s.filters {
		if !f.Outbound(env) {
			return nil
		}
	}
	return s.SendRaw(to, msg)
}

// SendRaw transmits without running outbound filters. Inner-circle services
// use it to emit their own protocol traffic (which must not be
// re-intercepted).
func (s *Service) SendRaw(to NodeID, msg Message) error {
	env := Env{From: s.id, To: to, Msg: msg}
	if s.down == nil {
		return s.transmit(env)
	}
	s.down(env)
	return nil
}

// transmit hands one envelope to the MAC. An envelope whose From differs
// from this node — identity spoofing injected by a tap — goes out with a
// forged link-layer source.
func (s *Service) transmit(e Env) error {
	if e.From != s.id {
		return s.mac.SendAs(mac.Addr(e.From), mac.Addr(e.To), e.Msg, e.Msg.Size())
	}
	return s.mac.Send(mac.Addr(e.To), e.Msg, e.Msg.Size())
}

func (s *Service) recv(p mac.Packet) {
	msg, ok := p.Payload.(Message)
	if !ok {
		return
	}
	env := Env{From: NodeID(p.Src), To: NodeID(p.Dst), Msg: msg}
	if s.up == nil {
		s.deliver(env)
		return
	}
	s.up(env)
}

// deliver runs the inbound filter chain and the upward handler; it is
// the top tap's inbound continuation.
func (s *Service) deliver(e Env) {
	for _, f := range s.filters {
		if !f.Inbound(e) {
			return
		}
	}
	if s.onRecv != nil {
		s.onRecv(e)
	}
}

func (s *Service) sendFailed(p mac.Packet) {
	msg, ok := p.Payload.(Message)
	if !ok {
		return
	}
	if s.onFailed != nil {
		s.onFailed(Env{From: NodeID(p.Src), To: NodeID(p.Dst), Msg: msg})
	}
}
