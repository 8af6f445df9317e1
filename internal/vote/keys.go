// Package vote implements the Inner-circle Voting Service of §4.2: the
// deterministic voting algorithm (Fig. 3a), which prevents illegitimate
// values from propagating, and the statistical voting algorithm (Fig. 3b),
// which improves a proposed value's accuracy by fusing it with the
// inner-circle's own observations. Both are parameterized by a
// dependability level L: agreement requires L neighbours to co-sign with
// their shares of the level key K_L, and the resulting agreed message is
// self-checking — any remote recipient verifies the threshold signature to
// confirm L+1 nodes cooperated. A statistical voter signs its value
// individually, through Deps.Auth: the node's one sts.Auth, which also
// signs its beacons.
package vote

import (
	"fmt"

	"innercircle/internal/crypto/thresh"
)

// PublicRing maps each dependability level L to its group key (threshold
// L, so L+1 partial signatures combine). Every node holds the ring; it is
// public material.
type PublicRing map[int]thresh.GroupKey

// NodeKeys maps each dependability level to this node's signer (its share
// of K_L). Only the owning node holds these.
type NodeKeys map[int]thresh.Signer

// DealRing uses dealer to create one group key per dependability level
// 1..maxL, each with threshold L shared among n nodes, and returns the
// public ring plus per-node key sets. Node i (0-based) receives share
// index i+1 of every level key — matching the paper's trusted-dealer
// initialization (§2).
func DealRing(dealer thresh.Dealer, maxL, n int) (PublicRing, []NodeKeys, error) {
	ring, nodeKeys, _, _, err := establishRing(maxL, n, "deal", func(level int) (*thresh.DKGResult, error) {
		gk, signers, err := dealer.Deal(level, n)
		return &thresh.DKGResult{Key: gk, Signers: signers}, err
	})
	return ring, nodeKeys, err
}

// DKGRing is DealRing's dealerless counterpart: the n nodes establish
// every level key among themselves (Dealer.DKG), with faults
// scripting misbehaviour by node ID (0-based). The returned blamed slice
// lists nodes disqualified with proof during any level's qualification
// round — callers feed these to the suspicion machinery as permanent
// suspects, the same verdict a corrupt partial signature earns — and
// silent lists nodes that dropped out without proof of malice. Excluded
// nodes end up with no signer for the affected levels, so they can hold
// the public ring and verify but never co-sign.
func DKGRing(dealer thresh.Dealer, maxL, n int, faults map[int]thresh.DKGFault) (PublicRing, []NodeKeys, []int, []int, error) {
	// Shift the 0-based node fault map to the 1-based participant indices
	// the DKG speaks.
	var pf map[int]thresh.DKGFault
	if len(faults) > 0 {
		pf = make(map[int]thresh.DKGFault, len(faults))
		for id, f := range faults {
			pf[id+1] = f
		}
	}
	return establishRing(maxL, n, "dkg", func(level int) (*thresh.DKGResult, error) {
		return dealer.DKG(thresh.DKGConfig{K: level, N: n, Faults: pf})
	})
}

// establishRing is the one key-establishment loop behind DealRing and
// DKGRing: it establishes one key per level 1..maxL that n nodes can reach
// (level+1 <= n) through establish, hands participant i's signer to node
// i-1 (none where establish excluded it), and folds every level's blamed
// and silent participants into ascending 0-based node lists.
func establishRing(maxL, n int, verb string, establish func(level int) (*thresh.DKGResult, error)) (PublicRing, []NodeKeys, []int, []int, error) {
	if maxL < 1 {
		return nil, nil, nil, nil, fmt.Errorf("vote: maxL must be >= 1, got %d", maxL)
	}
	if n < 2 {
		return nil, nil, nil, nil, fmt.Errorf("vote: need at least 2 nodes, got %d", n)
	}
	ring := make(PublicRing, maxL)
	nodeKeys := make([]NodeKeys, n)
	for i := range nodeKeys {
		nodeKeys[i] = make(NodeKeys, maxL)
	}
	blamedSet := make(map[int]bool)
	silentSet := make(map[int]bool)
	for level := 1; level <= maxL; level++ {
		if level+1 > n {
			break // not enough players to ever reach this level
		}
		res, err := establish(level)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("vote: %s level %d: %w", verb, level, err)
		}
		ring[level] = res.Key
		for i, s := range res.Signers {
			if s != nil {
				nodeKeys[i][level] = s
			}
		}
		for _, p := range res.Blamed {
			blamedSet[p-1] = true
		}
		for _, p := range res.Silent {
			silentSet[p-1] = true
		}
	}
	return ring, nodeKeys, sortedIDs(blamedSet), sortedIDs(silentSet), nil
}

// sortedIDs flattens an ID set into ascending order.
func sortedIDs(set map[int]bool) []int {
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ { // insertion sort; blamed sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
