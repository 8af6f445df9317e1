package node

import (
	"hash/fnv"
	"math"
	"testing"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

// icConfig builds an IC deployment config: n nodes in mutual radio range,
// deterministic voting at level l.
func icConfig(n, l int) Config {
	cfg := baseConfig(n)
	// One-hop clique: membership transitions assume the circle hears the
	// agreed broadcast directly.
	cfg.Mobility = func(i int, _ *sim.RNG) mobility.Model {
		return mobility.Static(geo.Point{X: float64(i) * 10})
	}
	cfg.IC = true
	cfg.MaxL = l + 1
	cfg.STS = sts.Config{Period: 0.9, Delta: 2, Authenticate: true, BeaconBaseBytes: 28}
	cfg.Vote = vote.Config{Mode: vote.Deterministic, L: l, RoundTimeout: 0.5, Retries: 1}
	return cfg
}

// buildIC assembles the network with per-node agreed-message capture and
// warms up the topology view.
func buildIC(t *testing.T, cfg Config) (*Network, []vote.AgreedMsg) {
	t.Helper()
	agreed := make([]vote.AgreedMsg, cfg.N)
	cfg.Callbacks = func(nd *Node) vote.Callbacks {
		i := nd.Index
		return vote.Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(a vote.AgreedMsg) { agreed[i] = a },
		}
	}
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.StartSTS()
	if err := net.Run(net.K.Now() + 4); err != nil {
		t.Fatal(err)
	}
	return net, agreed
}

// agreeOn proposes value from node `from` and requires every node in
// `expect` to see an agreed message for it.
func agreeOn(t *testing.T, net *Network, agreed []vote.AgreedMsg, from int, value []byte, expect []int) {
	t.Helper()
	for i := range agreed {
		agreed[i] = vote.AgreedMsg{}
	}
	if err := net.Nodes[from].Vote.Propose(value); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(net.K.Now() + 3); err != nil {
		t.Fatal(err)
	}
	for _, i := range expect {
		if agreed[i].Value == nil {
			t.Fatalf("node %d saw no agreement for %q", i, value)
		}
	}
}

func TestMembershipRequiresICAndSingleKernel(t *testing.T) {
	net, err := Build(baseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Membership(); err == nil {
		t.Fatal("membership manager created without IC")
	}
}

func TestMembershipLeaveReshareJoin(t *testing.T) {
	net, agreed := buildIC(t, icConfig(5, 2))
	m, err := net.Membership()
	if err != nil {
		t.Fatal(err)
	}
	agreeOn(t, net, agreed, 0, []byte("epoch-0"), []int{0, 1, 2, 3})

	// Node 4 departs; its signers are revoked immediately.
	m.Leave(4)
	if m.Active(4) || m.ActiveCount() != 4 {
		t.Fatalf("after Leave: active=%v count=%d", m.Active(4), m.ActiveCount())
	}
	if len(net.NodeKeys[4]) != 0 {
		t.Fatal("departed node kept signers")
	}
	if err := m.Reshare(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Epoch != 1 || m.Stats.Reshares != 1 {
		t.Fatalf("stats after reshare: %+v", m.Stats)
	}
	// The 4 survivors hold share indices 1..4 of the (unchanged) ring.
	for i := 0; i < 4; i++ {
		if net.NodeKeys[i][2] == nil {
			t.Fatalf("survivor %d has no level-2 signer after reshare", i)
		}
	}
	agreeOn(t, net, agreed, 0, []byte("epoch-1"), []int{0, 1, 2, 3})

	// Node 4 rejoins: heard again immediately, signing only after the
	// next reshare admits it to the keys.
	m.Join(4)
	if !m.Active(4) || m.Stats.Joins != 1 {
		t.Fatalf("after Join: active=%v stats=%+v", m.Active(4), m.Stats)
	}
	if len(net.NodeKeys[4]) != 0 {
		t.Fatal("joined node has signers before a reshare")
	}
	if err := m.Reshare(); err != nil {
		t.Fatal(err)
	}
	if net.NodeKeys[4][2] == nil {
		t.Fatal("rejoined node has no signer after reshare")
	}
	agreeOn(t, net, agreed, 4, []byte("epoch-2"), []int{0, 1, 2, 3, 4})
}

// TestMembershipOpsReportEffect: Leave, Crash and Join report whether they
// took effect, and each report equals the operation's delta on its Stats
// count — the no-ops (leaving an absent node, crashing twice, joining an
// active one, an index outside the circle) included.
func TestMembershipOpsReportEffect(t *testing.T) {
	net, _ := buildIC(t, icConfig(5, 2))
	m, err := net.Membership()
	if err != nil {
		t.Fatal(err)
	}
	counts := func() [3]uint64 { return [3]uint64{m.Stats.Departs, m.Stats.Crashes, m.Stats.Joins} }
	for _, step := range []struct {
		name string
		op   func() bool
		stat int // index into counts
		want bool
	}{
		{"leave 1", func() bool { return m.Leave(1) }, 0, true},
		{"leave 1 again", func() bool { return m.Leave(1) }, 0, false},
		{"crash 1 after leaving", func() bool { return m.Crash(1) }, 1, false},
		{"crash 2", func() bool { return m.Crash(2) }, 1, true},
		{"crash 2 again", func() bool { return m.Crash(2) }, 1, false},
		{"join active 3", func() bool { return m.Join(3) }, 2, false},
		{"join 2", func() bool { return m.Join(2) }, 2, true},
		{"join 2 again", func() bool { return m.Join(2) }, 2, false},
		{"leave outside the circle", func() bool { return m.Leave(9) }, 0, false},
		{"join outside the circle", func() bool { return m.Join(-1) }, 2, false},
	} {
		before := counts()
		got := step.op()
		after := counts()
		delta := after[step.stat] - before[step.stat]
		var wantDelta uint64
		if got {
			wantDelta = 1
		}
		if got != step.want || delta != wantDelta {
			t.Errorf("%s: reported %v (want %v), stat moved by %d", step.name, got, step.want, delta)
		}
		after[step.stat] = before[step.stat]
		if after != before {
			t.Errorf("%s: moved another count: %v -> %v", step.name, before, counts())
		}
	}
}

func TestMembershipCrashAbortsRounds(t *testing.T) {
	cfg := icConfig(4, 2)
	// Nobody acks, so a proposed round stays open until crash drains it.
	cfg.Callbacks = func(*Node) vote.Callbacks {
		return vote.Callbacks{Check: func(link.NodeID, []byte) bool { return false }}
	}
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.StartSTS()
	if err := net.Run(4); err != nil {
		t.Fatal(err)
	}
	m, err := net.Membership()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Nodes[1].Vote.Propose([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	m.Crash(1)
	if m.Stats.Crashes != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	if m.Stats.RoundsAborted != 1 {
		t.Fatalf("crash drained %d rounds, want 1", m.Stats.RoundsAborted)
	}
}

func TestMembershipRevokesUnreachableLevels(t *testing.T) {
	net, agreed := buildIC(t, icConfig(4, 1)) // MaxL=2: levels 1 and 2 dealt
	m, err := net.Membership()
	if err != nil {
		t.Fatal(err)
	}
	m.Leave(3)
	m.Leave(2)
	if err := m.Reshare(); err != nil {
		t.Fatal(err)
	}
	// Two members cannot reach level 2 (needs 3 co-signers): revoked.
	if m.Stats.LevelsRevoked != 1 {
		t.Fatalf("LevelsRevoked = %d, want 1", m.Stats.LevelsRevoked)
	}
	for i := 0; i < 2; i++ {
		if net.NodeKeys[i][1] == nil {
			t.Fatalf("node %d lost its level-1 signer", i)
		}
		if net.NodeKeys[i][2] != nil {
			t.Fatalf("node %d kept a signer for the revoked level 2", i)
		}
	}
	agreeOn(t, net, agreed, 0, []byte("two-left"), []int{0, 1})

	// A third member coming back re-arms the level at the next reshare.
	m.Join(2)
	if err := m.Reshare(); err != nil {
		t.Fatal(err)
	}
	if net.NodeKeys[0][2] == nil {
		t.Fatal("level 2 not re-armed after the circle regrew")
	}
	// Too few members to reshare at all is refused.
	m.Leave(2)
	m.Leave(1)
	if err := m.Reshare(); err == nil {
		t.Fatal("reshared a circle of one")
	}
}

func TestMembershipRefreshRotatesShares(t *testing.T) {
	net, agreed := buildIC(t, icConfig(4, 2))
	m, err := net.Membership()
	if err != nil {
		t.Fatal(err)
	}
	agreeOn(t, net, agreed, 0, []byte("before"), []int{0, 1, 2, 3})
	old := agreed[1]
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Refreshes != 1 || m.Stats.Epoch != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	// Under the sim scheme the rotated share keys invalidate the old
	// combined signature — and agreement still works on the new epoch.
	if err := net.Nodes[1].Vote.VerifyAgreed(old); err == nil {
		t.Fatal("pre-refresh signature verified after the refresh")
	}
	agreeOn(t, net, agreed, 0, []byte("after"), []int{0, 1, 2, 3})
}

// TestDKGBuildRejectsFaultsOutsideNetwork: a scripted DKG fault keyed past
// the last node (0-based index 5 of five) fails Build for either dealer
// instead of leaving the network silently fault-free.
func TestDKGBuildRejectsFaultsOutsideNetwork(t *testing.T) {
	for name, d := range map[string]thresh.Dealer{
		"sim": thresh.NewSimDealer([]byte("dkg-range"), 128),
		"rsa": &thresh.RSADealer{Bits: 512, Rand: sim.NewRNG(5)},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := icConfig(5, 1)
			cfg.Dealer = d
			cfg.DKG = true
			cfg.DKGFaults = map[int]thresh.DKGFault{5: thresh.DKGSilent}
			if _, err := Build(cfg); err == nil {
				t.Fatal("Build accepted a DKG fault for node 5 of a 5-node network")
			}
		})
	}
}

func TestDKGBuildWiresBlameIntoSuspicion(t *testing.T) {
	cfg := icConfig(6, 2)
	cfg.DKG = true
	cfg.DKGFaults = map[int]thresh.DKGFault{
		3: thresh.DKGCheatStubborn,
		5: thresh.DKGSilent,
	}
	net, agreed := buildIC(t, cfg)
	if len(net.DKGBlamed) != 1 || net.DKGBlamed[0] != 3 {
		t.Fatalf("DKGBlamed = %v, want [3]", net.DKGBlamed)
	}
	if len(net.DKGSilent) != 1 || net.DKGSilent[0] != 5 {
		t.Fatalf("DKGSilent = %v, want [5]", net.DKGSilent)
	}
	for _, nd := range net.Nodes {
		if nd.Index == 3 {
			continue
		}
		if !nd.Susp.Suspected(link.NodeID(3)) {
			t.Fatalf("node %d does not suspect the blamed node", nd.Index)
		}
		if nd.Index != 5 && !nd.Susp.Suspected(link.NodeID(5)) {
			t.Fatalf("node %d does not suspect the silent node", nd.Index)
		}
	}
	// Excluded nodes hold no signers; the qualified majority agrees
	// without them.
	if len(net.NodeKeys[3]) != 0 || len(net.NodeKeys[5]) != 0 {
		t.Fatal("excluded nodes received signers")
	}
	agreeOn(t, net, agreed, 0, []byte("dkg-keyed"), []int{0, 1, 2, 4})
	// DKG-established keys support the full lifecycle.
	m, err := net.Membership()
	if err != nil {
		t.Fatal(err)
	}
	m.Leave(3)
	m.Leave(5)
	if err := m.Reshare(); err != nil {
		t.Fatal(err)
	}
	agreeOn(t, net, agreed, 0, []byte("dkg-reshared"), []int{0, 1, 2, 4})
}

// TestSeededRSADealerBuildDeterministic builds one deterministic-voting
// network three times with a seeded threshold-RSA dealer and requires the
// same energy bits, frame count, agreed rounds and signatures: the
// dealer's primes come from the stream alone, so the keys, the combined
// signatures and with them the frame sizes do not move between builds.
// Over 120 proposals a different modulus shows in the energy too, through
// the signatures' varying byte lengths.
func TestSeededRSADealerBuildDeterministic(t *testing.T) {
	type outcome struct {
		energy uint64
		frames uint64
		agreed int
		sigs   uint64 // FNV-1a of every agreed signature
	}
	run := func() outcome {
		cfg := icConfig(5, 2)
		cfg.Dealer = &thresh.RSADealer{Bits: 512, Rand: sim.NewRNG(7)}
		net, agreed := buildIC(t, cfg)
		n, sigs := 0, fnv.New64a()
		for round := 0; round < 120; round++ {
			from := round % cfg.N
			agreeOn(t, net, agreed, from, []byte{byte(round)}, []int{from})
			for _, a := range agreed {
				if a.Value != nil {
					n++
					sigs.Write(a.Sig.Data)
				}
			}
		}
		return outcome{math.Float64bits(net.TotalEnergy()), net.Channel.Stats.FramesSent, n, sigs.Sum64()}
	}
	first := run()
	for i := 1; i < 3; i++ {
		if got := run(); got != first {
			t.Errorf("build %d: %+v, first build %+v", i, got, first)
		}
	}
}
