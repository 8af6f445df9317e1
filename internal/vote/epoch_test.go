package vote

import (
	"testing"

	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/crypto/thresh"
	"innercircle/internal/link"
)

// TestKeyEpochUsesEpochedInterface pins the epoch the memo keys read:
// GroupKey.Epoch, 0 for a dealt key and bumped by a refresh.
func TestKeyEpochUsesEpochedInterface(t *testing.T) {
	d := thresh.NewSimDealer([]byte("epoched"), 64)
	gk, signers, err := d.Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := gk.Epoch(); got != 0 {
		t.Fatalf("fresh key epoch = %d, want 0", got)
	}
	if _, err := d.Refresh(gk, signers); err != nil {
		t.Fatal(err)
	}
	if got := gk.Epoch(); got != 1 {
		t.Fatalf("post-refresh epoch = %d, want 1", got)
	}
}

// transitionLevel applies fresh signers for one level to every node: the
// per-node half of a membership epoch transition (drain, then SetKeys).
func (n *voteNet) transitionLevel(t *testing.T, level int, fresh []thresh.Signer) {
	t.Helper()
	for i, svc := range n.svcs {
		svc.AbortInFlight("membership epoch transition")
		nk := make(NodeKeys, len(n.keys[i]))
		for l, s := range n.keys[i] {
			nk[l] = s
		}
		if i < len(fresh) && fresh[i] != nil {
			nk[level] = fresh[i]
		} else {
			delete(nk, level)
		}
		n.keys[i] = nk
		svc.SetKeys(nk)
	}
}

// levelSigners collects the nodes' current signers for one level, in node
// order (the alignment Refresh expects).
func (n *voteNet) levelSigners(level int) []thresh.Signer {
	out := make([]thresh.Signer, len(n.keys))
	for i, nk := range n.keys {
		out[i] = nk[level]
	}
	return out
}

// runRound proposes from node 0 and returns each node's agreed message.
func runRound(t *testing.T, net *voteNet, value []byte, agreed []AgreedMsg) {
	t.Helper()
	for i := range agreed {
		agreed[i] = AgreedMsg{}
	}
	if err := net.svcs[0].Propose(value); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(net.k.Now() + 2); err != nil {
		t.Fatal(err)
	}
	for i := range agreed {
		if agreed[i].Value == nil {
			t.Fatalf("node %d saw no agreed message for %q", i, value)
		}
	}
}

// TestMemoNeverCrossesEpochBoundary is the end-to-end pin for "epoch bumps
// drive sigcache invalidation": memo entries recorded before a refresh or
// reshare must never serve verdicts afterwards. Observable via the
// vote_memo_hits/misses counters — the first post-transition verification
// of an old message is a miss (and, under the sim scheme whose share keys
// rotate, a rejection), never a stale cached OK.
func TestMemoNeverCrossesEpochBoundary(t *testing.T) {
	const n, level = 5, 2
	memo := sigcache.New(0)
	agreed := make([]AgreedMsg, n)
	net := buildVote(t, n, detConfig(level), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(a AgreedMsg) { agreed[i] = a },
		}
	})
	for _, svc := range net.svcs {
		svc.deps.Memo = memo
	}
	runRound(t, net, []byte("epoch-0 value"), agreed)
	svc := net.svcs[1]
	old := agreed[1]
	if err := svc.VerifyAgreed(old); err != nil {
		t.Fatalf("epoch-0 verify: %v", err)
	}
	hits := svc.Stats.MemoHits
	if err := svc.VerifyAgreed(old); err != nil {
		t.Fatal(err)
	}
	if svc.Stats.MemoHits != hits+1 {
		t.Fatal("repeat verification within an epoch did not hit the memo")
	}

	// --- refresh boundary -------------------------------------------------
	fresh, err := net.dealer.Refresh(net.ring[level], net.levelSigners(level))
	if err != nil {
		t.Fatal(err)
	}
	net.transitionLevel(t, level, fresh)
	hits, misses := svc.Stats.MemoHits, svc.Stats.MemoMisses
	// The old agreed message no longer verifies under the rotated share
	// keys — and the memoized epoch-0 OK must not be served for it.
	if err := svc.VerifyAgreed(old); err == nil {
		t.Fatal("pre-refresh signature verified after the refresh")
	}
	if svc.Stats.MemoHits != hits {
		t.Fatal("memo served a verdict across a refresh boundary")
	}
	if svc.Stats.MemoMisses != misses+1 {
		t.Fatal("post-refresh verification did not re-verify")
	}
	// A fresh round under the new shares agrees and verifies.
	runRound(t, net, []byte("epoch-1 value"), agreed)

	// --- reshare boundary -------------------------------------------------
	fromRefresh := agreed[1]
	fresh, err = net.dealer.Reshare(net.ring[level], level, n)
	if err != nil {
		t.Fatal(err)
	}
	net.transitionLevel(t, level, fresh)
	hits, misses = svc.Stats.MemoHits, svc.Stats.MemoMisses
	if err := svc.VerifyAgreed(fromRefresh); err == nil {
		t.Fatal("pre-reshare signature verified after the reshare")
	}
	if svc.Stats.MemoHits != hits {
		t.Fatal("memo served a verdict across a reshare boundary")
	}
	if svc.Stats.MemoMisses != misses+1 {
		t.Fatal("post-reshare verification did not re-verify")
	}
	runRound(t, net, []byte("epoch-2 value"), agreed)
}

// TestAbortInFlightDrainsRounds: the drain half of an epoch transition
// fails open rounds deterministically and reports them to the
// application.
func TestAbortInFlightDrainsRounds(t *testing.T) {
	var failed []string
	net := buildVote(t, 4, detConfig(2), simDealer(), func(i int) Callbacks {
		if i != 0 {
			// Voters decline every proposal, so the center's rounds stay
			// open until they time out — or are aborted.
			return Callbacks{Check: func(link.NodeID, []byte) bool { return false }}
		}
		return Callbacks{
			Check:         func(link.NodeID, []byte) bool { return true },
			OnRoundFailed: func(_ []byte, reason string) { failed = append(failed, reason) },
		}
	})
	svc := net.svcs[0]
	if err := svc.Propose([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := svc.Propose([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if got := svc.AbortInFlight("membership epoch transition"); got != 2 {
		t.Fatalf("aborted %d rounds, want 2", got)
	}
	if svc.Stats.RoundsFailed != 2 {
		t.Fatalf("RoundsFailed = %d, want 2", svc.Stats.RoundsFailed)
	}
	if len(failed) != 2 || failed[0] != "membership epoch transition" {
		t.Fatalf("failure callbacks = %v", failed)
	}
	if got := svc.AbortInFlight("again"); got != 0 {
		t.Fatalf("second drain aborted %d rounds", got)
	}
	// The aborted rounds' timers must not fire afterwards.
	if err := net.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if svc.Stats.RoundsFailed != 2 {
		t.Fatalf("timers re-failed aborted rounds: RoundsFailed = %d", svc.Stats.RoundsFailed)
	}
}
