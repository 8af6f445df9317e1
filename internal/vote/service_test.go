package vote

import (
	"bytes"
	"fmt"
	"testing"

	"innercircle/internal/crypto/nsl"
	"innercircle/internal/crypto/thresh"
	"innercircle/internal/geo"
	"innercircle/internal/icnet"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
)

// clique is a fake Topology in which every node neighbours every other.
type clique struct {
	self link.NodeID
	n    int
}

func (c clique) IsNeighbor(q link.NodeID) bool {
	return q != c.self && int(q) >= 0 && int(q) < c.n
}

func (c clique) NeighborCount() int {
	if c.self >= 0 && int(c.self) < c.n {
		return c.n - 1
	}
	return c.n
}

func (c clique) IsLink(p, q link.NodeID) bool { return p != q }

func (c clique) IsTwoHop(link.NodeID) bool { return false }

func (c clique) TwoHopCount() int { return 0 }

// voteNet is the test harness: n nodes in radio range, all running a voting
// service over a clique topology.
type voteNet struct {
	k     *sim.Kernel
	svcs  []*Service
	links []*link.Service
	macs  []*mac.MAC
	susp  []*icnet.SuspicionManager
	// Key lifecycle handles, retained so epoch-transition tests can
	// refresh/reshare mid-run.
	dealer thresh.Dealer
	ring   PublicRing
	keys   []NodeKeys
	// auths are the nodes' individual authenticators (statistical values).
	auths []sts.Auth
}

// checkRoundBook fails unless every node accounts for each round it
// started exactly once: agreed, failed, or still in flight.
func (n *voteNet) checkRoundBook(t *testing.T) {
	t.Helper()
	for i, s := range n.svcs {
		st := s.Stats
		if st.RoundsStarted != st.RoundsAgreed+st.RoundsFailed+uint64(len(s.rounds)) {
			t.Errorf("node %d: %d rounds started, but %d agreed + %d failed + %d in flight",
				i, st.RoundsStarted, st.RoundsAgreed, st.RoundsFailed, len(s.rounds))
		}
	}
}

// simDealer is the harness's default dealer, the keyed-MAC scheme every
// replica deals.
func simDealer() thresh.Dealer { return thresh.NewSimDealer([]byte("vote-test"), 128) }

// authScheme builds the individual authenticators of nodes 0..n-1, each
// signing as its node.
type authScheme struct {
	name  string
	auths func(t testing.TB, n int) []sts.Auth
}

// authSchemes are both authenticators a node can sign values with:
// RSAAuth over seeded 512-bit keys, and SimAuth emulating their 64-byte
// wire size.
var authSchemes = []authScheme{{"rsa512", rsaAuths}, {"sim", simAuths}}

func rsaAuths(t testing.TB, n int) []sts.Auth {
	rng := sim.NewRNG(1)
	kps := make([]*nsl.KeyPair, n)
	dir := nsl.DirectoryMap{}
	for i := range kps {
		kp, err := nsl.GenerateKeyPair(512, rng.SplitN("nsl", i))
		if err != nil {
			t.Fatal(err)
		}
		kps[i] = kp
		dir[int64(i)] = kp.Pub
	}
	auths := make([]sts.Auth, n)
	for i, kp := range kps {
		auths[i] = sts.NewRSAAuth(kp, dir)
	}
	return auths
}

func simAuths(_ testing.TB, n int) []sts.Auth {
	keys := sts.NewSimKeys([]byte("vote-test"), n)
	auths := make([]sts.Auth, n)
	for i := range auths {
		auths[i] = sts.NewSimAuth(keys, link.NodeID(i), 64)
	}
	return auths
}

// buildVote assembles the harness, dealing the level keys with dealer and
// giving each node an RSAAuth. cbs is instantiated per node via mkCbs.
// When the test ends, every node's round book must balance
// (checkRoundBook).
func buildVote(t *testing.T, n int, cfg Config, dealer thresh.Dealer, mkCbs func(i int) Callbacks) *voteNet {
	t.Helper()
	return buildVoteAuth(t, cfg, dealer, rsaAuths(t, n), mkCbs)
}

// buildVoteAuth is buildVote with one node per authenticator in auths.
func buildVoteAuth(t *testing.T, cfg Config, dealer thresh.Dealer, auths []sts.Auth, mkCbs func(i int) Callbacks) *voteNet {
	t.Helper()
	n := len(auths)
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(1)
	ring, keys, err := DealRing(dealer, 10, n)
	if err != nil {
		t.Fatal(err)
	}
	net := &voteNet{k: k, dealer: dealer, ring: ring, keys: keys, auths: auths}
	t.Cleanup(func() { net.checkRoundBook(t) })
	for i := 0; i < n; i++ {
		// All nodes within 100 m: single collision domain.
		pos := geo.Point{X: float64(i%5) * 40, Y: float64(i/5) * 40}
		m := mac.New(k, ch, mobility.Static(pos), nil, rng.SplitN("mac", i), mac.Default80211())
		l := link.NewService(m)
		susp := icnet.NewSuspicionManager(k, 120)
		svc, err := New(cfg, Deps{
			ID:   l.ID(),
			K:    k,
			Link: l,
			Topo: clique{self: l.ID(), n: n},
			Ring: ring,
			Keys: keys[i],
			Susp: susp,
			Auth: auths[i],
		}, mkCbs(i))
		if err != nil {
			t.Fatal(err)
		}
		s := svc
		l.OnRecv(func(e link.Env) { s.HandleEnv(e) })
		net.svcs = append(net.svcs, svc)
		net.links = append(net.links, l)
		net.macs = append(net.macs, m)
		net.susp = append(net.susp, susp)
	}
	return net
}

func detConfig(l int) Config {
	return Config{Mode: Deterministic, L: l, RoundTimeout: 0.5, Retries: 2}
}

func statConfig(l int) Config {
	return Config{Mode: Statistical, L: l, RoundTimeout: 0.5, Retries: 2}
}

func TestDeterministicAgreementHappyPath(t *testing.T) {
	agreed := make([][]AgreedMsg, 5)
	net := buildVote(t, 5, detConfig(2), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(center link.NodeID, value []byte) bool { return true },
			OnAgreed: func(a AgreedMsg) { agreed[i] = append(agreed[i], a) },
		}
	})
	if err := net.svcs[0].Propose([]byte("route-to-D")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	for i := range agreed {
		if len(agreed[i]) != 1 {
			t.Fatalf("node %d saw %d agreed messages, want 1", i, len(agreed[i]))
		}
		a := agreed[i][0]
		if a.Center != 0 || a.L != 2 || string(a.Value) != "route-to-D" {
			t.Fatalf("node %d agreed = %+v", i, a)
		}
		// Every node, including remote ones, can verify it.
		if err := net.svcs[i].VerifyAgreed(a); err != nil {
			t.Fatalf("node %d verify: %v", i, err)
		}
	}
	if net.svcs[0].Stats.RoundsAgreed != 1 {
		t.Fatalf("center stats = %+v", net.svcs[0].Stats)
	}
}

func TestDeterministicCheckRejectsInvalidValue(t *testing.T) {
	var failures []string
	agreedCount := 0
	net := buildVote(t, 4, detConfig(1), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check: func(center link.NodeID, value []byte) bool {
				return !bytes.Equal(value, []byte("malicious"))
			},
			OnAgreed:      func(AgreedMsg) { agreedCount++ },
			OnRoundFailed: func(v []byte, reason string) { failures = append(failures, reason) },
		}
	})
	if err := net.svcs[0].Propose([]byte("malicious")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if agreedCount != 0 {
		t.Fatal("malicious value achieved agreement")
	}
	if len(failures) != 1 {
		t.Fatalf("round failures = %v, want 1 timeout", failures)
	}
	if net.svcs[1].Stats.ChecksRejected == 0 {
		t.Fatal("voters did not record check rejections")
	}
	// A failed check alone is not provable misbehaviour: no suspicion.
	if net.susp[1].Suspected(0) {
		t.Fatal("center suspected on mere check failure")
	}
}

func TestProposeWithTooFewNeighbors(t *testing.T) {
	var failed bool
	net := buildVote(t, 4, detConfig(2), simDealer(), func(i int) Callbacks {
		return Callbacks{OnRoundFailed: func([]byte, string) { failed = true }}
	})
	// Shrink node 0's view to a single neighbour: fewer than L=2.
	net.svcs[0].deps.Topo = clique{self: 0, n: 2}
	if err := net.svcs[0].Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("round with L > |neighbours| did not fail immediately")
	}
	// The refused round counts as started and failed, but consumes no
	// sequence number and schedules nothing.
	svc := net.svcs[0]
	if svc.Stats.RoundsStarted != 1 || svc.Stats.RoundsFailed != 1 || svc.nextSeq != 0 || len(svc.rounds) != 0 {
		t.Fatalf("stats = %+v, next seq %d, %d rounds in flight", svc.Stats, svc.nextSeq, len(svc.rounds))
	}
	if err := net.k.Run(10); err != nil {
		t.Fatal(err)
	}
	if n := net.k.Processed(); n != 0 {
		t.Fatalf("refused round ran %d kernel events, want 0", n)
	}
}

// fuseMax is the statistical tests' fusion of single-byte values: their
// maximum, deterministic and easy to reason about.
func fuseMax(_ link.NodeID, values [][]byte) []byte {
	var max byte
	for _, v := range values {
		if len(v) == 1 && v[0] > max {
			max = v[0]
		}
	}
	return []byte{max}
}

func TestStatisticalVotingFusesValues(t *testing.T) {
	agreed := make([][]AgreedMsg, 5)
	net := buildVote(t, 5, statConfig(3), simDealer(), func(i int) Callbacks {
		return Callbacks{
			LocalValue: func(center link.NodeID, meta []byte) ([]byte, bool) {
				return []byte{byte(10 * (i + 1))}, true
			},
			Fuse:     fuseMax,
			OnAgreed: func(a AgreedMsg) { agreed[i] = append(agreed[i], a) },
		}
	})
	if err := net.svcs[0].Propose([]byte{5}); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(agreed[0]) != 1 {
		t.Fatalf("center saw %d agreed messages, want 1", len(agreed[0]))
	}
	got := agreed[0][0].Value
	// The fused max must come from one of the voters (10..50), not the
	// center's low 5; exactly which depends on which L voters answered
	// first, but it is at least 20.
	if len(got) != 1 || got[0] < 20 {
		t.Fatalf("fused value = %v, want max >= 20", got)
	}
	for i := range agreed {
		if len(agreed[i]) != 1 {
			t.Fatalf("node %d saw %d agreed, want 1", i, len(agreed[i]))
		}
	}
}

func TestStatisticalForgedProposeRejected(t *testing.T) {
	agreedCount := 0
	net := buildVote(t, 4, statConfig(2), simDealer(), func(i int) Callbacks {
		return Callbacks{
			LocalValue: func(link.NodeID, []byte) ([]byte, bool) { return []byte{1}, true },
			Fuse: func(_ link.NodeID, values [][]byte) []byte {
				return []byte{1}
			},
			OnAgreed: func(AgreedMsg) { agreedCount++ },
		}
	})
	// Node 0 skips the solicit phase and directly broadcasts a propose
	// with no supporting signed values: voters must reject it.
	forged := ProposeMsg{Center: 0, Seq: 9, L: 2, Mode: Statistical, Value: []byte{99}}
	_ = net.links[0].SendRaw(link.BroadcastID, forged)
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if agreedCount != 0 {
		t.Fatal("forged statistical propose achieved agreement")
	}
	if net.svcs[1].Stats.ChecksRejected == 0 {
		t.Fatal("voters did not reject the forged propose")
	}
}

func TestByzantinePartialDoesNotBlockAgreement(t *testing.T) {
	agreed := 0
	net := buildVote(t, 6, detConfig(2), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(AgreedMsg) { agreed++ },
		}
	})
	// Node 3 is Byzantine: it acks with garbage partials. Intercept by
	// replacing its service handler with a corrupting one.
	byz := net.svcs[3]
	net.links[3].OnRecv(func(e link.Env) {
		if p, ok := e.Msg.(ProposeMsg); ok {
			// Send a corrupted ack directly.
			garbage := thresh.Partial{Index: 4, Data: []byte("garbage")}
			_ = net.links[3].SendRaw(p.Center, AckMsg{
				Center: p.Center, Seq: p.Seq, Voter: 3, Partial: garbage,
			})
			return
		}
		byz.HandleEnv(e)
	})
	if err := net.svcs[0].Propose([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if net.svcs[0].Stats.RoundsAgreed != 1 {
		t.Fatalf("center stats = %+v; Byzantine partial blocked agreement", net.svcs[0].Stats)
	}
	if agreed == 0 {
		t.Fatal("no agreed messages delivered")
	}
}

func TestVerifyAgreedRejectsTampering(t *testing.T) {
	var captured *AgreedMsg
	net := buildVote(t, 4, detConfig(1), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(a AgreedMsg) { captured = &a },
		}
	})
	if err := net.svcs[0].Propose([]byte("genuine")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no agreed message")
	}
	bad := *captured
	bad.Value = []byte("tampered")
	if err := net.svcs[1].VerifyAgreed(bad); err == nil {
		t.Fatal("tampered agreed message verified")
	}
	badL := *captured
	badL.L = 3
	if err := net.svcs[1].VerifyAgreed(badL); err == nil {
		t.Fatal("level-swapped agreed message verified")
	}
	// VerifierFor adapts for the interceptor.
	v := net.svcs[1].VerifierFor()
	if claims, valid := v(link.Env{From: 0, Msg: *captured}); !claims || !valid {
		t.Fatal("genuine agreed message rejected by verifier")
	}
	if claims, valid := v(link.Env{From: 0, Msg: bad}); !claims || valid {
		t.Fatal("tampered agreed message accepted by verifier")
	}
	if claims, _ := v(link.Env{From: 0, Msg: SolicitMsg{}}); claims {
		t.Fatal("non-agreed message claimed agreement")
	}
}

func TestAgreedDeliveredOnce(t *testing.T) {
	count := 0
	var captured *AgreedMsg
	net := buildVote(t, 4, detConfig(1), simDealer(), func(i int) Callbacks {
		cb := Callbacks{Check: func(link.NodeID, []byte) bool { return true }}
		if i == 1 {
			cb.OnAgreed = func(a AgreedMsg) { count++; captured = &a }
		}
		return cb
	})
	if err := net.svcs[0].Propose([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if count != 1 || captured == nil {
		t.Fatalf("delivered %d times, want 1", count)
	}
	// Replay the same agreed message: dedup must swallow it.
	_ = net.links[0].SendRaw(link.BroadcastID, *captured)
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed agreed message redelivered (count=%d)", count)
	}
}

func TestRetryRecoversFromLoss(t *testing.T) {
	// With only center+2 nodes and L=2, every ack matters. The round
	// should still complete despite MAC-level contention, possibly via
	// retries.
	agreed := 0
	net := buildVote(t, 3, detConfig(2), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(AgreedMsg) { agreed++ },
		}
	})
	if err := net.svcs[0].Propose([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if agreed == 0 {
		t.Fatal("round never completed")
	}
}

func TestConfigValidation(t *testing.T) {
	dealer := thresh.NewSimDealer([]byte("x"), 64)
	ring, keys, err := DealRing(dealer, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	valid := Deps{Ring: ring, Keys: keys[0]}
	cases := []struct {
		name string
		cfg  Config
		deps Deps
	}{
		{"bad mode", Config{Mode: 0, L: 1, RoundTimeout: 1}, valid},
		{"bad level", Config{Mode: Deterministic, L: 0, RoundTimeout: 1}, valid},
		{"no timeout", Config{Mode: Deterministic, L: 1}, valid},
		{"missing keys", Config{Mode: Deterministic, L: 1, RoundTimeout: 1}, Deps{}},
		{"level not dealt", Config{Mode: Deterministic, L: 9, RoundTimeout: 1}, valid},
		{"stat without signer", Config{Mode: Statistical, L: 1, RoundTimeout: 1}, valid},
	}
	for _, c := range cases {
		if _, err := New(c.cfg, c.deps, Callbacks{}); err == nil {
			t.Errorf("%s: New succeeded, want error", c.name)
		}
	}
}

func TestDealRingValidation(t *testing.T) {
	dealer := thresh.NewSimDealer([]byte("x"), 64)
	if _, _, err := DealRing(dealer, 0, 5); err == nil {
		t.Error("maxL=0 accepted")
	}
	if _, _, err := DealRing(dealer, 3, 1); err == nil {
		t.Error("n=1 accepted")
	}
	// Levels above n-1 are skipped, not dealt.
	ring, keys, err := DealRing(dealer, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ring[3]; !ok {
		t.Error("level 3 missing (needs 4 players, have 4)")
	}
	if _, ok := ring[4]; ok {
		t.Error("level 4 dealt with only 4 players (needs 5)")
	}
	if len(keys) != 4 {
		t.Errorf("got %d node key sets, want 4", len(keys))
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Deterministic: "deterministic", Statistical: "statistical", Mode(9): "unknown"} {
		if got := fmt.Sprint(m); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
