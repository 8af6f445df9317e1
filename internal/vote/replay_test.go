package vote

import (
	"bytes"
	"maps"
	"reflect"
	"testing"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// roundView is a copy of one round's bookkeeping at the center.
type roundView struct {
	Value     []byte
	Acks      []voterAck
	Values    []SignedValue
	Retries   int
	Proposing bool
	Done      bool
	Armed     bool
	Deadline  sim.Time
}

// serviceState is what a delivery may change in a service: its counters
// and its round bookkeeping, copied so later deliveries cannot alias it.
// The delivered-agreed set is covered by Stats.AgreedDelivered, which
// counts exactly its insertions.
type serviceState struct {
	Stats    Stats
	NextSeq  uint64
	Rounds   map[uint64]roundView
	AckedSeq map[link.NodeID]uint64
	Relayed  map[relayKey]bool
}

func snapshot(s *Service) serviceState {
	st := serviceState{
		Stats:    s.Stats,
		NextSeq:  s.nextSeq,
		Rounds:   make(map[uint64]roundView, len(s.rounds)),
		AckedSeq: maps.Clone(s.ackedSeq),
		Relayed:  maps.Clone(s.relayed),
	}
	for seq, r := range s.rounds {
		acks := make([]voterAck, len(r.acks))
		for i, a := range r.acks {
			acks[i] = voterAck{voter: a.voter, partial: thresh.Partial{Index: a.partial.Index, Data: bytes.Clone(a.partial.Data)}}
		}
		values := make([]SignedValue, len(r.values))
		for i, sv := range r.values {
			values[i] = SignedValue{Voter: sv.Voter, Value: bytes.Clone(sv.Value), Sig: bytes.Clone(sv.Sig)}
		}
		st.Rounds[seq] = roundView{
			Value: bytes.Clone(r.value), Acks: acks, Values: values,
			Retries: r.retries, Proposing: r.proposing, Done: r.done,
			Armed: r.timer.Active(), Deadline: r.timer.Deadline(),
		}
	}
	return st
}

// deliverTwice hands s the envelope e, then e again, then relayed — the
// same message arriving through another node — and fails unless s ends
// as it was after the first delivery. resent, when non-nil, adjusts the
// expected counters for the one re-send the protocol intends for a
// repeated opening: an ack for a re-proposal, a value for a re-solicit.
func deliverTwice(t *testing.T, s *Service, e, relayed link.Env, resent func(*Stats)) {
	t.Helper()
	s.HandleEnv(e)
	want := snapshot(s)
	if resent != nil {
		resent(&want.Stats)
	}
	s.HandleEnv(e)
	s.HandleEnv(relayed)
	if got := snapshot(s); !reflect.DeepEqual(got, want) {
		t.Errorf("%T from %d replayed, then relayed by %d: node %d changed\n got %+v\nwant %+v",
			e.Msg, e.From, relayed.From, s.deps.ID, got, want)
	}
}

func env(from link.NodeID, m link.Message) link.Env {
	return link.Env{From: from, To: link.BroadcastID, Msg: m}
}

// TestReplayedVotesChangeNothing delivers every vote message kind twice
// and once more as a relayed copy, at the center, at a voter and at a
// relaying bystander, in one-hop and two-hop circles: a replayed valid
// message never resets or advances a round, and counts nothing twice.
func TestReplayedVotesChangeNothing(t *testing.T) {
	const level = 2
	for _, twoHop := range []bool{false, true} {
		name := "one-hop"
		if twoHop {
			name = "two-hop"
		}
		t.Run(name+"/deterministic", func(t *testing.T) {
			cfg := detConfig(level)
			cfg.TwoHop = twoHop
			var agreed []AgreedMsg
			net := buildVote(t, 5, cfg, simDealer(), func(i int) Callbacks {
				return Callbacks{
					Check: func(link.NodeID, []byte) bool { return true },
					OnAgreed: func(a AgreedMsg) {
						if i == 0 {
							agreed = append(agreed, a)
						}
					},
				}
			})
			value := []byte("route-to-D")
			if err := net.svcs[0].Propose(value); err != nil {
				t.Fatal(err)
			}
			prop := ProposeMsg{Center: 0, Seq: 1, L: level, Mode: Deterministic, Value: value}
			relayedProp := prop
			relayedProp.Relayed, relayedProp.Relayer = true, 2
			deliverTwice(t, net.svcs[1], env(0, prop), env(2, relayedProp), func(st *Stats) { st.AcksSent++ })

			ack := func(voter link.NodeID) AckMsg {
				p, err := net.keys[voter][level].PartialSign(appendDigest(nil, 0, 1, level, value))
				if err != nil {
					t.Fatal(err)
				}
				return AckMsg{Center: 0, Seq: 1, Voter: voter, Partial: p}
			}
			deliverTwice(t, net.svcs[0], env(1, ack(1)), env(3, ack(1)), nil)
			deliverTwice(t, net.svcs[2], env(1, ack(1)), env(3, ack(1)), nil) // a bystander's inward relay
			deliverTwice(t, net.svcs[0], env(2, ack(2)), env(3, ack(2)), nil) // completes the round
			if st := net.svcs[0].Stats; st.RoundsAgreed != 1 || len(agreed) != 1 {
				t.Fatalf("center: stats %+v, %d agreed messages; want one agreed round", st, len(agreed))
			}
			deliverTwice(t, net.svcs[1], env(0, agreed[0]), env(2, agreed[0]), nil)
			if st := net.svcs[1].Stats; st.AgreedDelivered != 1 || st.AgreedInvalid != 0 || st.AcksSent != 2 {
				t.Fatalf("voter: stats %+v", st)
			}
		})
		t.Run(name+"/statistical", func(t *testing.T) {
			cfg := statConfig(level)
			cfg.TwoHop = twoHop
			observe := func(i int) []byte { return []byte{byte(10 + i)} }
			net := buildVote(t, 5, cfg, simDealer(), func(i int) Callbacks {
				return Callbacks{
					LocalValue: func(link.NodeID, []byte) ([]byte, bool) { return observe(i), true },
					Fuse:       func(_ link.NodeID, vals [][]byte) []byte { return bytes.Join(vals, nil) },
				}
			})
			meta := []byte("target-7")
			if err := net.svcs[0].Propose(meta); err != nil {
				t.Fatal(err)
			}
			sol := SolicitMsg{Center: 0, Seq: 1, L: level, Meta: meta}
			relayedSol := sol
			relayedSol.Relayed, relayedSol.Relayer = true, 2
			deliverTwice(t, net.svcs[1], env(0, sol), env(2, relayedSol), func(st *Stats) { st.ValuesSent++ })

			val := func(voter link.NodeID) ValueMsg {
				v := observe(int(voter))
				sig := net.auths[voter].Sign(appendValueDigest(nil, 0, 1, voter, v))
				return ValueMsg{Center: 0, Seq: 1, Voter: voter, Value: v, Sig: sig}
			}
			deliverTwice(t, net.svcs[0], env(1, val(1)), env(3, val(1)), nil)
			deliverTwice(t, net.svcs[2], env(1, val(1)), env(3, val(1)), nil) // a bystander's inward relay
			deliverTwice(t, net.svcs[0], env(2, val(2)), env(3, val(2)), nil) // moves the round to proposing
			r := net.svcs[0].rounds[1]
			if r == nil || !r.proposing || len(r.values) != level+1 {
				t.Fatalf("center round after %d values: %+v", level, r)
			}
			prop := ProposeMsg{Center: 0, Seq: 1, L: level, Mode: Statistical, Value: r.value, Values: r.values}
			relayedProp := prop
			relayedProp.Relayed, relayedProp.Relayer = true, 2
			deliverTwice(t, net.svcs[3], env(0, prop), env(2, relayedProp), func(st *Stats) { st.AcksSent++ })
			if st := net.svcs[3].Stats; st.AcksSent != 2 || st.ChecksRejected != 0 {
				t.Fatalf("voter: stats %+v", st)
			}
		})
	}
}

// TestInwardPathBoxesOnlyRelayedReplies pins the inward path's cost: a
// reply this node neither takes nor forwards — one for another center, or
// one already forwarded — allocates nothing.
func TestInwardPathBoxesOnlyRelayedReplies(t *testing.T) {
	for _, twoHop := range []bool{false, true} {
		cfg := detConfig(2)
		cfg.TwoHop = twoHop
		net := buildVote(t, 4, cfg, simDealer(), func(int) Callbacks { return Callbacks{} })
		e := env(1, AckMsg{Center: 0, Seq: 1, Voter: 1, Partial: thresh.Partial{Index: 2, Data: []byte{1}}})
		s := net.svcs[2]
		s.HandleEnv(e) // a two-hop bystander forwards it here, once
		if n := testing.AllocsPerRun(100, func() { s.HandleEnv(e) }); n != 0 {
			t.Errorf("two-hop %v: %v allocations per ack not forwarded, want 0", twoHop, n)
		}
	}
}
