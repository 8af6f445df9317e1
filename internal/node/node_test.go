package node

import (
	"hash/fnv"
	"math"
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
	keys, err := GenerateKeySetSeeded(2, 512, 1)
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

// resetSeededKeys empties the node-key cache, as a fresh process finds it.
func resetSeededKeys() {
	keyCache.Lock()
	keyCache.stream, keyCache.keys = nil, nil
	keyCache.Unlock()
}

// TestSeededKeysPrefix: node key i is a constant of the index. The cache
// grows on demand, and because the keys come off one seeded stream in
// order, the first n are GenerateKeySetSeeded's first n for the node-key
// seed whatever sizes were asked for before, in whatever order.
func TestSeededKeysPrefix(t *testing.T) {
	t.Cleanup(resetSeededKeys)
	whole, err := GenerateKeySetSeeded(12, keyBits, nodeKeySeed)
	if err != nil {
		t.Fatal(err)
	}
	resetSeededKeys()
	for _, n := range []int{5, 12, 3, 12} {
		keys, err := seededKeys(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != n || cap(keys) != n {
			t.Fatalf("asked for %d keys, got len %d cap %d", n, len(keys), cap(keys))
		}
		for i, kp := range keys {
			if kp.Pub.N.Cmp(whole[i].Pub.N) != 0 {
				t.Fatalf("key %d of %d differs from the seeded set's", i, n)
			}
		}
	}
}

// TestKeylessBuildDeterministic: a network that needs RSA material but is
// given no Config.Keys is still a function of its Config. Node keys come
// from the seeded key stream and handshake nonces from each node's "nsl"
// stream, so three builds of one Config send the same frames and the same
// handshake ciphertexts, agree the same rounds and spend the same energy to
// the bit.
func TestKeylessBuildDeterministic(t *testing.T) {
	type outcome struct {
		energy     uint64
		frames     uint64
		agreed     int
		handshakes int
		ciphers    uint64 // FNV-1a of every handshake ciphertext sent
	}
	for _, handshake := range []bool{false, true} {
		run := func() outcome {
			cfg := baseConfig(5)
			cfg.Mobility = func(i int, _ *sim.RNG) mobility.Model {
				return mobility.Static(geo.Point{X: float64(i) * 40, Y: float64(i%2) * 30})
			}
			cfg.IC = true
			cfg.STS = sts.Config{Period: 0.9, Delta: 2, Authenticate: true, Handshake: handshake, BeaconBaseBytes: 28}
			cfg.Vote = vote.Config{Mode: vote.Statistical, L: 2, RoundTimeout: 0.5, Retries: 1}
			agreed := 0
			cfg.Callbacks = func(nd *Node) vote.Callbacks {
				return vote.Callbacks{
					LocalValue: func(link.NodeID, []byte) ([]byte, bool) { return []byte{byte(nd.Index)}, true },
					Fuse: func(_ link.NodeID, values [][]byte) []byte {
						return []byte{byte(len(values))}
					},
					OnAgreed: func(vote.AgreedMsg) { agreed++ },
				}
			}
			net, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var handshakes int
			ciphers := fnv.New64a()
			for _, nd := range net.Nodes {
				nd.Link.SetObserver(func(outbound bool, e link.Env) {
					if m, ok := e.Msg.(sts.HandshakeMsg); ok && outbound {
						handshakes++
						ciphers.Write(m.Cipher)
					}
				})
			}
			net.StartSTS()
			if err := net.Run(4); err != nil {
				t.Fatal(err)
			}
			for _, nd := range net.Nodes[1:3] {
				if err := nd.Vote.Propose([]byte{9}); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.Run(100); err != nil {
				t.Fatal(err)
			}
			return outcome{math.Float64bits(net.TotalEnergy()), net.Channel.Stats.FramesSent, agreed, handshakes, ciphers.Sum64()}
		}
		first := run()
		if first.agreed == 0 || (first.handshakes > 0) != handshake {
			t.Fatalf("handshake=%v: %d rounds agreed, %d handshake messages", handshake, first.agreed, first.handshakes)
		}
		for i := 1; i < 3; i++ {
			if got := run(); got != first {
				t.Errorf("handshake=%v build %d: %+v, first build %+v", handshake, i, got, first)
			}
		}
	}
}
