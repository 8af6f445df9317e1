package vote

import (
	"testing"

	"innercircle/internal/link"
)

// TestRoundAllocs pins the heap allocations of one deterministic round at
// its center: Propose, then the level's L acks, handed to the service in
// descending voter order, the last of which completes the round. The
// figure counts the whole round — the round state and its timer, both
// messages' boxing and the MAC queue, the combine and the agreed
// delivery — so a round that kept its acks in a map again, or sorted them
// through a comparator closure, would raise it. The kernel never runs, so
// nothing reaches the voters.
func TestRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const (
		level  = 3
		runs   = 50
		rounds = runs + 1 // AllocsPerRun's warm-up call runs one more
		want   = 16
	)
	net := buildVoteAuth(t, detConfig(level), simDealer(), simAuths(t, level+1), func(int) Callbacks {
		return Callbacks{Check: func(link.NodeID, []byte) bool { return true }}
	})
	center := net.svcs[0]
	value := []byte("route-to-D")
	acks := make([][]link.Env, rounds)
	for i := range acks {
		dig := appendDigest(nil, center.deps.ID, uint64(i+1), level, value)
		for v := level; v >= 1; v-- {
			p, err := net.keys[v][level].PartialSign(dig)
			if err != nil {
				t.Fatal(err)
			}
			voter := link.NodeID(v)
			acks[i] = append(acks[i], env(voter, AckMsg{Center: center.deps.ID, Seq: uint64(i + 1), Voter: voter, Partial: p}))
		}
	}
	round := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := center.Propose(value); err != nil {
			t.Fatal(err)
		}
		for _, e := range acks[round] {
			center.HandleEnv(e)
		}
		round++
	})
	if st := center.Stats; st.RoundsAgreed != rounds || st.PartialsRejected != 0 {
		t.Fatalf("%d of %d rounds agreed, %d partials rejected", st.RoundsAgreed, rounds, st.PartialsRejected)
	}
	if got != want {
		t.Fatalf("one round with %d acks allocates %v times, want %d", level, got, want)
	}
}
