package vote

import (
	"fmt"
	"testing"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// TestByzantineCorruptAcksNeutralized is the voting-layer neutralization
// demonstration, §4.2's Termination under Byzantine voters: in an 8-node
// clique at L = 2, node 0 proposes five values while voters 1..b flip one
// bit of the partial signature in every ack they send. The liars answer
// first: the correct voters take 10 ms to sign, the liars no time, which
// is the worst arrival order for the center. With 7 − b >= L correct
// voters every round must agree, in both voting modes and under both
// threshold schemes. Each corrupt ack must be counted
// (PartialsRejected), and every liar whose ack reached the center while
// its round was open must be suspected permanently — provable
// misbehaviour per §4 — and no honest voter at all.
func TestByzantineCorruptAcksNeutralized(t *testing.T) {
	const n, level, proposals = 8, 2, 5
	schemes := []struct {
		name   string
		dealer func() thresh.Dealer
	}{
		{"sim", simDealer},
		{"rsa", func() thresh.Dealer { return &thresh.RSADealer{Bits: 512, Rand: sim.NewRNG(3)} }},
	}
	for _, cfg := range []Config{detConfig(level), statConfig(level)} {
		for _, sc := range schemes {
			for b := 1; b <= 3; b++ {
				t.Run(fmt.Sprintf("%v/%s/b=%d", cfg.Mode, sc.name, b), func(t *testing.T) {
					net := buildVote(t, n, cfg, sc.dealer(), func(i int) Callbacks {
						return Callbacks{
							Check: func(link.NodeID, []byte) bool { return true },
							LocalValue: func(link.NodeID, []byte) ([]byte, bool) {
								return []byte{byte(10 * i)}, true
							},
							Fuse: fuseMax,
						}
					})
					lies := 0
					for v := 1; v < n; v++ {
						if v > b {
							net.svcs[v].deps.Crypto.SignDelay = 0.01
							continue
						}
						net.svcs[v].SetByzantine(&Byzantine{
							CorruptAcks: true,
							RNG:         sim.NewRNG(int64(7 + v)),
							OnLie:       func() { lies++ },
						})
					}
					center := net.svcs[0]
					reached := make(map[link.NodeID]bool)
					net.links[0].OnRecv(func(e link.Env) {
						if m, ok := e.Msg.(AckMsg); ok && m.Voter >= 1 && int(m.Voter) <= b {
							if r, open := center.rounds[m.Seq]; open && r.proposing {
								reached[m.Voter] = true
							}
						}
						center.HandleEnv(e)
					})
					for p := 0; p < proposals; p++ {
						if err := center.Propose([]byte{byte(p + 1)}); err != nil {
							t.Fatal(err)
						}
						if err := net.k.Run(sim.Time(2 * (p + 1))); err != nil {
							t.Fatal(err)
						}
					}
					st := center.Stats
					if st.RoundsAgreed != proposals {
						t.Fatalf("%d of %d rounds agreed (%d failed) with %d corrupt voters", st.RoundsAgreed, proposals, st.RoundsFailed, b)
					}
					if lies == 0 || st.PartialsRejected == 0 {
						t.Fatalf("%d lies told, %d partials rejected: no corrupt partial was examined", lies, st.PartialsRejected)
					}
					permanent := make(map[link.NodeID]bool)
					for _, ev := range net.susp[0].Log() {
						if ev.Reason == "corrupt partial signature" {
							permanent[ev.Node] = true
						}
					}
					for v := link.NodeID(1); v < n; v++ {
						liar := int(v) <= b
						if liar && reached[v] && (!permanent[v] || !net.susp[0].Suspected(v)) {
							t.Errorf("liar %d's corrupt ack reached the center, but it is not permanently suspected", v)
						}
						if !liar && net.susp[0].Suspected(v) {
							t.Errorf("honest voter %d suspected", v)
						}
					}
				})
			}
		}
	}
}

// TestByzantineAckAllAcceptsBadValue shows the complementary lie: a voter
// that acks values its Check rejects. With only one such voter the round
// for a bad value still fails (L honest rejections starve it), so the lie
// is observable purely through the counter.
func TestByzantineAckAllAcceptsBadValue(t *testing.T) {
	agreed := 0
	net := buildVote(t, 5, detConfig(2), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(center link.NodeID, value []byte) bool { return string(value) != "bad" },
			OnAgreed: func(AgreedMsg) { agreed++ },
		}
	})
	lies := 0
	net.svcs[2].SetByzantine(&Byzantine{
		AckAll: true,
		OnLie:  func() { lies++ },
	})
	if err := net.svcs[0].Propose([]byte("bad")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if lies == 0 {
		t.Fatal("AckAll voter never lied about the bad value")
	}
	if agreed != 0 {
		t.Fatal("a single lying voter pushed a bad value through L=2 agreement")
	}
}
