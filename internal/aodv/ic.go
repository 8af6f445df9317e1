package aodv

import (
	"slices"

	"innercircle/internal/icnet"
	"innercircle/internal/link"
	"innercircle/internal/vote"
)

// ICAdapter wires a Router into the inner-circle framework, implementing
// the black-hole defense of Fig. 6:
//
//   - outgoing RREPs are intercepted and proposed to the sender's inner
//     circle (deterministic voting);
//   - a voter approves a proposed RREP only if the proposer is the route
//     destination itself or a node the voter already accepted as a
//     forwarder for that (destination, sequence-number) pair;
//   - when agreement is reached, every inner-circle member records the
//     proposer and the designated next hop in its forwarding map fw, and
//     the next hop injects the RREP into its local AODV — whose own
//     forwarding is intercepted in turn, repeating the vote hop by hop
//     back to the requester;
//   - raw (un-voted) incoming RREPs are suppressed by the interceptor as
//     unsigned: an RREP matches the template the adapter registers, and
//     the interceptor drops a template match that carries no agreement, so
//     a malicious node's forged reply never enters a correct node's
//     routing table.
type ICAdapter struct {
	id      link.NodeID
	router  *Router
	propose func(value []byte) error

	// fw maps (route destination, destination sequence number) to the
	// nodes allowed to forward RREPs for that route, in the order they were
	// first approved — the mapping maintained by the Inner-circle Callbacks
	// in Fig. 6. A route generation has a handful of forwarders, so a
	// slice scan is the set.
	fw map[fwKey][]link.NodeID

	// Stats counts defense activity.
	Stats ICStats
}

type fwKey struct {
	dst    link.NodeID
	dstSeq uint32
}

// ICStats counts adapter activity.
type ICStats struct {
	RrepsProposed  uint64
	ChecksAccepted uint64
	ChecksRejected uint64
	RrepsInjected  uint64
}

// NewICAdapter installs the adapter: it registers the RREP template with
// the interceptor and returns the vote callbacks to use when constructing
// the node's voting service. propose starts a round on that service; the
// adapter calls it only once the simulation runs, so it may read a service
// built after the callbacks.
func NewICAdapter(id link.NodeID, router *Router, ic *icnet.Interceptor, propose func(value []byte) error) (*ICAdapter, vote.Callbacks) {
	a := &ICAdapter{
		id:      id,
		router:  router,
		propose: propose,
		fw:      make(map[fwKey][]link.NodeID),
	}
	// Intercept outgoing RREPs: redirect into the voting service.
	ic.Register(func(e link.Env) bool {
		_, isRREP := e.Msg.(RREP)
		return isRREP
	}, func(e link.Env) {
		a.Stats.RrepsProposed++
		_ = a.propose(EncodeRREP(e.Msg.(RREP)))
	})
	cbs := vote.Callbacks{
		Check:    a.check,
		OnAgreed: a.onAgreed,
	}
	return a, cbs
}

// check is the Inner-circle Callbacks' check method (Fig. 6): approve
// center c's proposed RREP only if c is the route destination or a known
// legitimate forwarder for that route generation.
func (a *ICAdapter) check(center link.NodeID, value []byte) bool {
	rep, err := DecodeRREP(value)
	if err != nil {
		a.Stats.ChecksRejected++
		return false
	}
	if center == rep.Dst {
		a.Stats.ChecksAccepted++
		return true
	}
	if slices.Contains(a.fw[fwKey{dst: rep.Dst, dstSeq: rep.DstSeq}], center) {
		a.Stats.ChecksAccepted++
		return true
	}
	a.Stats.ChecksRejected++
	return false
}

// onAgreed is the Inner-circle Callbacks' onAgreed method: record the
// approved forwarders and, if this node is the designated next hop, hand
// the RREP to the local AODV service.
func (a *ICAdapter) onAgreed(m vote.AgreedMsg) {
	rep, err := DecodeRREP(m.Value)
	if err != nil {
		return
	}
	key := fwKey{dst: rep.Dst, dstSeq: rep.DstSeq}
	fw := a.fw[key]
	for _, id := range [...]link.NodeID{m.Center, rep.NextHop} {
		if !slices.Contains(fw, id) {
			fw = append(fw, id)
		}
	}
	a.fw[key] = fw
	if rep.NextHop == a.id {
		a.Stats.RrepsInjected++
		a.router.AcceptRREP(m.Center, rep)
	}
}

// AllowedForwarders returns a copy of the fw set for a route generation,
// in first-approved order (for tests).
func (a *ICAdapter) AllowedForwarders(dst link.NodeID, dstSeq uint32) []link.NodeID {
	return slices.Clone(a.fw[fwKey{dst: dst, dstSeq: dstSeq}])
}
