package vote

import (
	"fmt"
	"testing"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// TestPropertiesRandomizedScenarios is a randomized end-to-end check of
// the §4.2 service properties. For each trial it draws a circle size, a
// failure budget (crashes + Byzantine voters), sets L by the paper's
// formula L = N − F − 1, runs a deterministic round over the real
// radio/MAC stack, and asserts:
//
//   - Termination: every started round ends (agreed or failed) once the
//     event queue drains;
//   - Agreement/Integrity: if the round completes, the agreed message
//     verifies under K_L and carries the proposed value, even though the
//     Byzantine voters contributed garbage partials;
//   - Safety under infeasibility: if more voters misbehave than the
//     budget allows, the round must fail rather than deliver a forged
//     agreement.
func TestPropertiesRandomizedScenarios(t *testing.T) {
	rng := sim.NewRNG(2026)
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(6)         // 4..9 nodes (center + voters)
		crashes := rng.Intn(2)       // 0..1 crashed voters
		byz := rng.Intn(2)           // 0..1 Byzantine voters
		extraByz := rng.Intn(2) == 0 // sometimes exceed the budget
		l, err := LevelFor(n, byz, crashes, 0)
		if err != nil {
			continue // infeasible draw
		}
		name := fmt.Sprintf("trial%02d_n%d_c%d_b%d_extra%v", trial, n, crashes, byz, extraByz)
		t.Run(name, func(t *testing.T) {
			agreed := 0
			failed := 0
			var delivered []AgreedMsg
			net := buildVote(t, n, detConfig(l), simDealer(), func(i int) Callbacks {
				return Callbacks{
					Check: func(link.NodeID, []byte) bool { return true },
					OnAgreed: func(m AgreedMsg) {
						agreed++
						delivered = append(delivered, m)
					},
					OnRoundFailed: func([]byte, string) { failed++ },
				}
			})
			// Assign failures among voters 1..n-1 (node 0 is the correct
			// center).
			victims := make([]int, 0, n-1)
			for i := 1; i < n; i++ {
				victims = append(victims, i)
			}
			rng.Shuffle(len(victims), func(i, j int) {
				victims[i], victims[j] = victims[j], victims[i]
			})
			idx := 0
			for c := 0; c < crashes; c++ {
				net.macs[victims[idx]].Transceiver().SetDown(true)
				idx++
			}
			byzCount := byz
			if extraByz && idx+byzCount < len(victims) {
				byzCount++ // one more Byzantine voter than budgeted
			}
			for bz := 0; bz < byzCount && idx < len(victims); bz++ {
				v := victims[idx]
				idx++
				makeByzantine(net, v)
			}

			if err := net.svcs[0].Propose([]byte("prop")); err != nil {
				t.Fatal(err)
			}
			if err := net.k.Run(20); err != nil {
				t.Fatal(err)
			}

			// Termination: the round resolved one way or the other.
			st := net.svcs[0].Stats
			if st.RoundsStarted != st.RoundsAgreed+st.RoundsFailed {
				t.Fatalf("unresolved round: %+v", st)
			}
			// Integrity: every delivered agreed message verifies and
			// carries the proposed value.
			for _, m := range delivered {
				if err := net.svcs[0].VerifyAgreed(m); err != nil {
					t.Fatalf("delivered agreed message fails verification: %v", err)
				}
				if string(m.Value) != "prop" {
					t.Fatalf("agreed value corrupted: %q", m.Value)
				}
				if m.L != l {
					t.Fatalf("agreed level = %d, want %d", m.L, l)
				}
			}
			// Within budget the round must succeed (correct voters
			// suffice: N-1-crashes-byzCount >= L means enough correct
			// acks).
			correctVoters := n - 1 - crashes - byzCount
			if correctVoters >= l && agreed == 0 {
				t.Fatalf("round failed with %d correct voters >= L=%d", correctVoters, l)
			}
		})
	}
}

// makeByzantine rewires a voter to respond to every proposal with a
// garbage partial signature.
func makeByzantine(net *voteNet, i int) {
	svc := net.svcs[i]
	net.links[i].OnRecv(func(e link.Env) {
		if p, ok := e.Msg.(ProposeMsg); ok {
			garbage := thresh.Partial{Index: i + 1, Data: []byte("byzantine!")}
			_ = net.links[i].SendRaw(p.Center, AckMsg{
				Center: p.Center, Seq: p.Seq, Voter: link.NodeID(i), Partial: garbage,
			})
			return
		}
		svc.HandleEnv(e)
	})
}
