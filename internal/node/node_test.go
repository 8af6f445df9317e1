package node

import (
	"slices"
	"testing"

	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

func baseConfig(n int) Config {
	return Config{
		N:      n,
		Seed:   1,
		Radio:  radio.Default80211(),
		MAC:    mac.Default80211(),
		Energy: energy.NS2Default(),
		Mobility: func(i int, _ *sim.RNG) mobility.Model {
			return mobility.Static(geo.Point{X: float64(i) * 100})
		},
	}
}

type ping struct{ n int }

func (ping) Size() int { return 16 }

func TestBuildPlainNetwork(t *testing.T) {
	net, err := Build(baseConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) != 3 {
		t.Fatalf("built %d nodes", len(net.Nodes))
	}
	for i, nd := range net.Nodes {
		if int(nd.ID) != i || nd.Index != i {
			t.Fatalf("node %d has ID %v", i, nd.ID)
		}
		if nd.STS != nil || nd.Vote != nil || nd.Intercept != nil {
			t.Fatal("plain network has IC components")
		}
	}
}

// TestCallbacksRunInBothModes: Build calls Config.Callbacks once per node,
// in node order, with or without the inner circle, after every node's link
// exists and before the node's voting service does.
func TestCallbacksRunInBothModes(t *testing.T) {
	for _, ic := range []bool{false, true} {
		cfg := baseConfig(4)
		if ic {
			cfg.IC = true
			cfg.STS = sts.Config{Period: 0.9, Delta: 2, Authenticate: true, BeaconBaseBytes: 28}
			cfg.Vote = vote.Config{Mode: vote.Deterministic, L: 1, RoundTimeout: 0.2, Retries: 1}
		}
		var order []int
		cfg.Callbacks = func(nd *Node) vote.Callbacks {
			order = append(order, nd.Index)
			if nd.Link == nil || nd.Vote != nil {
				t.Errorf("IC=%v node %d: callbacks saw Link %v, Vote %v", ic, nd.Index, nd.Link != nil, nd.Vote != nil)
			}
			return vote.Callbacks{}
		}
		net, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, []int{0, 1, 2, 3}) {
			t.Errorf("IC=%v: callbacks called for nodes %v, want [0 1 2 3]", ic, order)
		}
		if hasVote := net.Nodes[0].Vote != nil; hasVote != ic {
			t.Errorf("IC=%v: node 0 has a voting service: %v", ic, hasVote)
		}
	}
}

func TestDispatchToHandlers(t *testing.T) {
	net, err := Build(baseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var got []link.Env
	consumed := 0
	net.Nodes[1].Handle(func(e link.Env) bool {
		if _, ok := e.Msg.(ping); ok {
			got = append(got, e)
			consumed++
			return true
		}
		return false
	})
	second := 0
	net.Nodes[1].Handle(func(e link.Env) bool { second++; return true })
	if err := net.Nodes[0].Link.SendRaw(1, ping{1}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(1); err != nil {
		t.Fatal(err)
	}
	if consumed != 1 || len(got) != 1 {
		t.Fatalf("handler saw %d messages", consumed)
	}
	if second != 0 {
		t.Fatal("second handler ran despite first consuming the message")
	}
}

func TestICNetworkWiring(t *testing.T) {
	cfg := baseConfig(4)
	cfg.IC = true
	cfg.STS = sts.Config{Period: 0.9, Delta: 2, Authenticate: true, BeaconBaseBytes: 28}
	cfg.Vote = vote.Config{Mode: vote.Deterministic, L: 1, RoundTimeout: 0.2, Retries: 1}
	agreed := 0
	cfg.Callbacks = func(nd *Node) vote.Callbacks {
		return vote.Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(vote.AgreedMsg) { agreed++ },
		}
	}
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.StartSTS()
	if err := net.Run(4); err != nil {
		t.Fatal(err)
	}
	if err := net.Nodes[1].Vote.Propose([]byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(6); err != nil {
		t.Fatal(err)
	}
	if agreed == 0 {
		t.Fatal("IC network completed no agreement")
	}
	if net.Ring == nil {
		t.Fatal("no threshold ring dealt")
	}
}

func TestICRequiresSTS(t *testing.T) {
	cfg := baseConfig(3)
	cfg.IC = true
	if _, err := Build(cfg); err == nil {
		t.Fatal("IC without STS accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := baseConfig(0)
	if _, err := Build(cfg); err == nil {
		t.Error("N=0 accepted")
	}
	cfg = baseConfig(2)
	cfg.Mobility = nil
	if _, err := Build(cfg); err == nil {
		t.Error("missing mobility accepted")
	}
}

func TestKeyCountMismatch(t *testing.T) {
	keys, err := GenerateKeySet(2, 512)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(3)
	cfg.Keys = keys
	if _, err := Build(cfg); err == nil {
		t.Fatal("mismatched key count accepted")
	}
}

func TestTotalEnergyAccumulates(t *testing.T) {
	net, err := Build(baseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	// Two idle nodes for 10 s at 35 mW each = 0.7 J.
	if got := net.TotalEnergy(); got < 0.69 || got > 0.71 {
		t.Fatalf("TotalEnergy = %v, want ~0.7", got)
	}
}

func TestGenerateKeySet(t *testing.T) {
	keys, err := GenerateKeySet(3, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("got %d keys", len(keys))
	}
	for i, kp := range keys {
		if kp == nil || kp.Pub.N == nil {
			t.Fatalf("key %d is incomplete", i)
		}
	}
}
