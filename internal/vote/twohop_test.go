package vote

import (
	"testing"

	"innercircle/internal/link"
)

// lineTopo models a 3-node line 0 - 1 - 2: nodes 0 and 2 are two hops
// apart and only node 1 neighbours both.
type lineTopo struct {
	self link.NodeID
}

func (t lineTopo) IsNeighbor(q link.NodeID) bool {
	switch t.self {
	case 0:
		return q == 1
	case 1:
		return q == 0 || q == 2
	case 2:
		return q == 1
	}
	return false
}

func (t lineTopo) NeighborCount() int {
	switch t.self {
	case 0, 2:
		return 1
	case 1:
		return 2
	}
	return 0
}

func (t lineTopo) IsLink(p, q link.NodeID) bool {
	return (p == 1 && (q == 0 || q == 2)) || ((p == 0 || p == 2) && q == 1)
}

func (t lineTopo) IsTwoHop(q link.NodeID) bool {
	return (t.self == 0 && q == 2) || (t.self == 2 && q == 0)
}

func (t lineTopo) TwoHopCount() int {
	if t.self == 1 {
		return 0
	}
	return 1
}

// buildLine assembles a 3-node radio line (0 and 2 out of mutual range)
// with the given vote config, using the lineTopo fake.
func buildLine(t *testing.T, cfg Config, mkCbs func(i int) Callbacks) *voteNet {
	t.Helper()
	net := buildVote(t, 3, cfg, simDealer(), mkCbs)
	for i, svc := range net.svcs {
		svc.deps.Topo = lineTopo{self: link.NodeID(i)}
	}
	// Physically separate nodes 0 and 2: rebuild positions is overkill;
	// instead rely on lineTopo membership checks — radio still delivers
	// broadcasts to everyone, but a correct two-hop implementation must
	// not depend on that (the relay path is exercised by unicast acks).
	return net
}

func TestTwoHopAgreementSucceeds(t *testing.T) {
	// L=2 with only one physical neighbour: impossible with one-hop
	// circles, possible with the two-hop extension (voter 2 joins via
	// relayer 1).
	cfg := detConfig(2)
	cfg.TwoHop = true
	agreed := make([]int, 3)
	net := buildLine(t, cfg, func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(AgreedMsg) { agreed[i]++ },
		}
	})
	if err := net.svcs[0].Propose([]byte("wide circle")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if net.svcs[0].Stats.RoundsAgreed != 1 {
		t.Fatalf("center stats = %+v; two-hop round did not complete", net.svcs[0].Stats)
	}
	for i, n := range agreed {
		if n != 1 {
			t.Fatalf("node %d delivered %d agreed messages, want 1 (two-hop relay)", i, n)
		}
	}
}

func TestOneHopCircleCannotReachLevelTwo(t *testing.T) {
	cfg := detConfig(2) // TwoHop off
	failed := 0
	net := buildLine(t, cfg, func(i int) Callbacks {
		return Callbacks{
			Check:         func(link.NodeID, []byte) bool { return true },
			OnRoundFailed: func([]byte, string) { failed++ },
		}
	})
	if err := net.svcs[0].Propose([]byte("too narrow")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("failures = %d, want 1 (|neighbours| = 1 < L = 2)", failed)
	}
}

func TestTwoHopStatisticalVoting(t *testing.T) {
	cfg := statConfig(2)
	cfg.TwoHop = true
	fuse := func(_ link.NodeID, values [][]byte) []byte {
		var sum byte
		for _, v := range values {
			if len(v) == 1 {
				sum += v[0]
			}
		}
		return []byte{sum}
	}
	var got []byte
	net := buildLine(t, cfg, func(i int) Callbacks {
		return Callbacks{
			LocalValue: func(link.NodeID, []byte) ([]byte, bool) {
				return []byte{byte(10 * (i + 1))}, true
			},
			Fuse: fuse,
			OnAgreed: func(m AgreedMsg) {
				if i == 0 {
					got = m.Value
				}
			},
		}
	})
	if err := net.svcs[0].Propose([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if net.svcs[0].Stats.RoundsAgreed != 1 {
		t.Fatalf("two-hop statistical round did not complete: %+v", net.svcs[0].Stats)
	}
	// Fused value = 1 (center) + 20 (node 1) + 30 (node 2) = 51.
	if len(got) != 1 || got[0] != 51 {
		t.Fatalf("fused value = %v, want [51] (both rings contributed)", got)
	}
}

func TestTwoHopVerifyAgreedStillBindsLevel(t *testing.T) {
	cfg := detConfig(2)
	cfg.TwoHop = true
	var captured *AgreedMsg
	net := buildLine(t, cfg, func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(m AgreedMsg) { captured = &m },
		}
	})
	if err := net.svcs[0].Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no agreed message")
	}
	bad := *captured
	bad.Value = []byte("y")
	if err := net.svcs[2].VerifyAgreed(bad); err == nil {
		t.Fatal("tampered two-hop agreed message verified")
	}
}
