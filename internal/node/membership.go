package node

import (
	"fmt"
	"sort"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/vote"
)

// MembershipStats counts membership-lifecycle activity.
type MembershipStats struct {
	Epoch         uint64 // membership epochs completed (reshares + refreshes)
	Reshares      uint64
	Refreshes     uint64
	Departs       uint64
	Crashes       uint64
	Joins         uint64
	RoundsAborted uint64 // in-flight vote rounds drained by transitions
	LevelsRevoked uint64 // level keys left unshared for lack of members
}

// Membership drives the epoch-based inner-circle lifecycle on top of a
// built network: nodes leave, crash, and rejoin mid-run, and the level
// keys follow the surviving set through quorum reshares and proactive
// refreshes. Each transition is a drain → swap → re-announce sequence:
// in-flight vote rounds are aborted (a round straddling an epoch boundary
// cannot complete — its partials would mix epochs), signer sets are
// swapped atomically in virtual time, and the active members immediately
// re-beacon so the topology view catches up without waiting out a beacon
// period.
//
// Membership itself is an orchestration convenience standing in for the
// paper's distributed join/leave protocol: it runs as a zero-duration
// oracle at the instant a transition fires, while the costs the paper
// cares about (aborted rounds, re-announce traffic, reshare computation)
// all land in the simulation.
type Membership struct {
	net    *Network
	active []bool
	Stats  MembershipStats
}

// Membership creates the lifecycle manager. Requires an IC network on a
// single kernel: transitions mutate every node's signer set at one
// instant, which a sharded deployment cannot order.
func (net *Network) Membership() (*Membership, error) {
	if net.Ring == nil {
		return nil, fmt.Errorf("node: membership requires the inner circle (IC mode)")
	}
	if net.Set != nil {
		return nil, fmt.Errorf("node: membership transitions require a single-kernel deployment")
	}
	m := &Membership{net: net, active: make([]bool, len(net.Nodes))}
	for i := range m.active {
		m.active[i] = true
	}
	return m, nil
}

// Active reports whether node i is currently a circle member.
func (m *Membership) Active(i int) bool {
	return i >= 0 && i < len(m.active) && m.active[i]
}

// ActiveCount returns the current circle size.
func (m *Membership) ActiveCount() int {
	n := 0
	for _, a := range m.active {
		if a {
			n++
		}
	}
	return n
}

// activeIDs returns the member indices in ascending order.
func (m *Membership) activeIDs() []int {
	ids := make([]int, 0, len(m.active))
	for i, a := range m.active {
		if a {
			ids = append(ids, i)
		}
	}
	return ids
}

// Leave departs node i gracefully: it stops beaconing (neighbours age it
// out of their topology views), drains its open rounds, and surrenders
// its signers so it can no longer co-sign. Its old shares stay
// mathematically valid until the next Reshare rotates the polynomials —
// the reshare policy decides how quickly departed shares die. It reports
// whether i was a member, i.e. whether the leave took effect.
func (m *Membership) Leave(i int) bool {
	return m.depart(i, "membership: left the circle", &m.Stats.Departs)
}

// Crash fails node i abruptly. At this layer a crash and a graceful leave
// look the same — the node stops participating. Nothing here touches the
// node's radio or MAC, and neither does the fault injector's crash, which
// swallows traffic at the link layer only: the MAC still ACKs unicasts.
// It reports whether i was a member, i.e. whether the crash took effect.
func (m *Membership) Crash(i int) bool {
	return m.depart(i, "membership: node crashed", &m.Stats.Crashes)
}

// depart removes member i and counts the departure in *count; it reports
// whether i was a member.
func (m *Membership) depart(i int, reason string, count *uint64) bool {
	if !m.Active(i) {
		return false
	}
	*count++
	m.active[i] = false
	nd := m.net.Nodes[i]
	if nd.STS != nil {
		nd.STS.Stop()
	}
	if nd.Vote != nil {
		m.Stats.RoundsAborted += uint64(nd.Vote.AbortInFlight(reason))
		nd.Vote.SetKeys(nil)
	}
	m.net.NodeKeys[i] = vote.NodeKeys{}
	return true
}

// Join admits node i (back) into the circle: STS restarts with an
// immediate beacon, so neighbours hear it right away. The node only
// regains signing capability at the next Reshare — that is the act by
// which the quorum actually admits a member to the key. It reports whether
// i was a non-member, i.e. whether the join took effect.
func (m *Membership) Join(i int) bool {
	if i < 0 || i >= len(m.active) || m.active[i] {
		return false
	}
	m.active[i] = true
	if nd := m.net.Nodes[i]; nd.STS != nil {
		nd.STS.Start()
	}
	m.Stats.Joins++
	return true
}

// Reshare moves every level key to the current active set: member j in
// ascending-index order receives share index j+1 of each rebuilt key. The
// public keys are unchanged, so previously agreed messages stay
// verifiable, but the epoch bump invalidates memoized verdicts and (under
// rotated share keys) stale partials. Levels the shrunken circle can no
// longer reach (L+1 > members) are revoked: nobody receives a signer,
// though the key object remains for verifying old traffic; a later
// Reshare with enough members re-arms them.
func (m *Membership) Reshare() error {
	act := m.activeIDs()
	if len(act) < 2 {
		return fmt.Errorf("node: cannot reshare a circle of %d members", len(act))
	}
	m.drain("membership epoch transition: reshare")
	fresh := make([]vote.NodeKeys, len(m.net.Nodes))
	for i := range fresh {
		fresh[i] = vote.NodeKeys{}
	}
	for _, level := range m.levels() {
		if level+1 > len(act) {
			m.Stats.LevelsRevoked++
			continue
		}
		signers, err := m.net.Dealer.Reshare(m.net.Ring[level], level, len(act))
		if err != nil {
			return fmt.Errorf("node: reshare level %d: %w", level, err)
		}
		for j, s := range signers {
			fresh[act[j]][level] = s
		}
	}
	m.install(fresh)
	m.Stats.Reshares++
	m.Stats.Epoch++
	return nil
}

// Refresh proactively re-randomizes every level key among its current
// holders (share rotation without membership change): public keys and
// share indices are unchanged, old partials and memos die with the epoch.
func (m *Membership) Refresh() error {
	m.drain("membership epoch transition: refresh")
	fresh := make([]vote.NodeKeys, len(m.net.Nodes))
	for i := range fresh {
		fresh[i] = vote.NodeKeys{}
		for level, s := range m.net.NodeKeys[i] {
			fresh[i][level] = s
		}
	}
	refreshed := false
	for _, level := range m.levels() {
		// Holders in node order — the alignment Refresh expects.
		var holders []int
		var old []thresh.Signer
		for i := range m.net.Nodes {
			if s := m.net.NodeKeys[i][level]; s != nil {
				holders = append(holders, i)
				old = append(old, s)
			}
		}
		if len(holders) == 0 {
			continue // revoked level: nothing to rotate
		}
		rotated, err := m.net.Dealer.Refresh(m.net.Ring[level], old)
		if err != nil {
			return fmt.Errorf("node: refresh level %d: %w", level, err)
		}
		for j, i := range holders {
			fresh[i][level] = rotated[j]
		}
		refreshed = true
	}
	if !refreshed {
		return fmt.Errorf("node: no level keys held by any node to refresh")
	}
	m.install(fresh)
	m.Stats.Refreshes++
	m.Stats.Epoch++
	return nil
}

// drain aborts every node's in-flight rounds before a key swap.
func (m *Membership) drain(reason string) {
	for _, nd := range m.net.Nodes {
		if nd.Vote != nil {
			m.Stats.RoundsAborted += uint64(nd.Vote.AbortInFlight(reason))
		}
	}
}

// install swaps the per-node signer sets in and re-announces the active
// members over STS.
func (m *Membership) install(fresh []vote.NodeKeys) {
	for i, nd := range m.net.Nodes {
		m.net.NodeKeys[i] = fresh[i]
		if nd.Vote != nil {
			nd.Vote.SetKeys(fresh[i])
		}
		if m.active[i] && nd.STS != nil {
			nd.STS.Announce()
		}
	}
}

// levels returns the ring's dependability levels in ascending order.
func (m *Membership) levels() []int {
	out := make([]int, 0, len(m.net.Ring))
	for level := range m.net.Ring {
		out = append(out, level)
	}
	sort.Ints(out)
	return out
}
