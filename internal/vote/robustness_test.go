package vote

import (
	"testing"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/link"
)

// TestRobustnessRandomEnvelopes storms one voting service with randomized,
// malformed and adversarial protocol messages. The service must neither
// panic nor deliver an agreed message whose signature it cannot verify.
func TestRobustnessRandomEnvelopes(t *testing.T) {
	agreedCount := 0
	net := buildVote(t, 4, detConfig(1), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(AgreedMsg) { agreedCount++ },
		}
	})
	target := net.svcs[1]
	rng := net.k // unused; deterministic inputs below
	_ = rng

	junkValues := [][]byte{nil, {}, {0}, []byte("x"), make([]byte, 4096)}
	partials := []thresh.Partial{
		{},
		{Index: -1, Data: []byte("neg")},
		{Index: 999, Data: nil},
		{Index: 2, Data: make([]byte, 1000)},
	}
	var envs []link.Env
	for _, v := range junkValues {
		for _, from := range []link.NodeID{0, 1, 2, 3, 99, -5} {
			envs = append(envs,
				link.Env{From: from, To: 1, Msg: ProposeMsg{Center: from, Seq: 1, L: 1, Mode: Deterministic, Value: v}},
				link.Env{From: from, To: 1, Msg: ProposeMsg{Center: from, Seq: 2, L: 99, Mode: Statistical, Value: v}},
				link.Env{From: from, To: 1, Msg: ProposeMsg{Center: 0, Seq: 3, L: 0, Mode: Mode(7), Value: v, Relayed: true, Relayer: from}},
				link.Env{From: from, To: 1, Msg: SolicitMsg{Center: from, Seq: 4, L: -1, Meta: v}},
				link.Env{From: from, To: 1, Msg: ValueMsg{Center: 1, Seq: 5, Voter: from, Value: v, Sig: v}},
				link.Env{From: from, To: 1, Msg: AgreedMsg{Center: from, Seq: 6, L: 1, Value: v, Sig: thresh.Signature{Data: v}}},
				link.Env{From: from, To: 1, Msg: AgreedMsg{Center: from, Seq: 7, L: -3, Value: v}},
			)
		}
	}
	for _, p := range partials {
		envs = append(envs, link.Env{From: 2, To: 1, Msg: AckMsg{Center: 1, Seq: 1, Voter: 2, Partial: p}})
		envs = append(envs, link.Env{From: 0, To: 1, Msg: AckMsg{Center: 0, Seq: 1, Voter: 3, Partial: p}})
	}
	for _, e := range envs {
		target.HandleEnv(e) // must not panic
	}
	if agreedCount != 0 {
		t.Fatalf("adversarial traffic produced %d agreed deliveries", agreedCount)
	}
	if target.Stats.AgreedInvalid == 0 {
		t.Fatal("no invalid agreed messages recorded despite forgeries")
	}
}

// TestRobustnessForgedAckCannotCompleteRound floods a center with acks
// from identities that are not its neighbours and with partials for the
// wrong message; the round must not complete.
func TestRobustnessForgedAckCannotCompleteRound(t *testing.T) {
	agreed := 0
	net := buildVote(t, 4, detConfig(3), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return i == 0 }, // only the center approves
			OnAgreed: func(AgreedMsg) { agreed++ },
		}
	})
	if err := net.svcs[0].Propose([]byte("needs 3")); err != nil {
		t.Fatal(err)
	}
	// Forge acks from non-members and duplicates before voters respond.
	forged := thresh.Partial{Index: 2, Data: []byte("junk")}
	for _, voter := range []link.NodeID{50, 51, 52, 1, 1, 1} {
		net.svcs[0].HandleEnv(link.Env{From: voter, To: 0, Msg: AckMsg{
			Center: 0, Seq: 1, Voter: voter, Partial: forged,
		}})
	}
	if err := net.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if agreed != 0 {
		t.Fatal("forged acks completed a round")
	}
}
