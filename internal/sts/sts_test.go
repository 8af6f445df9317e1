package sts

import (
	"fmt"
	"io"
	"slices"
	"testing"

	"innercircle/internal/crypto/nsl"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

// harness bundles the per-node stack for STS tests.
type harness struct {
	k    *sim.Kernel
	svcs []*Service
	lnks []*link.Service
	mobs []mobility.Model
}

// testKeys generates n 512-bit key pairs from src. A seeded src makes the
// keys, and so the signature bytes, repeat across harnesses.
func testKeys(t testing.TB, n int, src io.Reader) []*nsl.KeyPair {
	t.Helper()
	keys := make([]*nsl.KeyPair, n)
	for i := range keys {
		kp, err := nsl.GenerateKeyPair(512, src)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
	}
	return keys
}

// buildSTS assembles n nodes with the given positions and starts their STS.
func buildSTS(t *testing.T, positions []geo.Point, cfg Config, mobs []mobility.Model) *harness {
	t.Helper()
	return buildSTSKeyed(t, positions, cfg, mobs, testKeys(t, len(positions), sim.NewRNG(2)), rsaAuth, nil)
}

// authFactory returns node id's beacon authenticator; keys and dir are the
// harness's NSL key pairs and their directory.
type authFactory func(id link.NodeID, keys []*nsl.KeyPair, dir nsl.Directory) BeaconAuth

// rsaAuth is the RSAAuth factory.
func rsaAuth(id link.NodeID, keys []*nsl.KeyPair, dir nsl.Directory) BeaconAuth {
	return NewRSAAuth(keys[id], dir)
}

// buildSTSKeyed is buildSTS with the key pairs, the beacon authenticators
// and the beacon memo (nil: none) chosen by the caller.
func buildSTSKeyed(t *testing.T, positions []geo.Point, cfg Config, mobs []mobility.Model, keys []*nsl.KeyPair, auth authFactory, memo *Memo) *harness {
	t.Helper()
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(1)
	dir := nsl.DirectoryMap{}
	for i, kp := range keys {
		dir[int64(i)] = kp.Pub
	}
	h := &harness{k: k}
	for i, p := range positions {
		var mob mobility.Model = mobility.Static(p)
		if mobs != nil {
			mob = mobs[i]
		}
		h.mobs = append(h.mobs, mob)
		m := mac.New(k, ch, mob, nil, rng.SplitN("mac", i), mac.Default80211())
		l := link.NewService(m)
		party := nsl.NewParty(int64(i), keys[i], dir, rng.SplitN("nsl", i))
		svc, err := New(cfg, Deps{
			ID:    l.ID(),
			K:     k,
			Link:  l,
			RNG:   rng.SplitN("sts", i),
			Auth:  auth(l.ID(), keys, dir),
			Memo:  memo,
			Party: party,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := svc
		l.OnRecv(func(e link.Env) { s.HandleEnv(e) })
		h.svcs = append(h.svcs, svc)
		h.lnks = append(h.lnks, l)
	}
	for _, s := range h.svcs {
		s.Start()
	}
	return h
}

// buildSTSWithSimAuth is buildSTS with keyed-MAC beacon auth and no
// handshake (the sweep configuration).
func buildSTSWithSimAuth(t *testing.T, positions []geo.Point, cfg Config) *harness {
	t.Helper()
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(1)
	keys := NewSimKeys([]byte("net"), len(positions))
	h := &harness{k: k}
	for i, p := range positions {
		m := mac.New(k, ch, mobility.Static(p), nil, rng.SplitN("mac", i), mac.Default80211())
		l := link.NewService(m)
		svc, err := New(cfg, Deps{
			ID:   l.ID(),
			K:    k,
			Link: l,
			RNG:  rng.SplitN("sts", i),
			Auth: NewSimAuth(keys, l.ID(), 64),
		})
		if err != nil {
			t.Fatal(err)
		}
		s := svc
		l.OnRecv(func(e link.Env) { s.HandleEnv(e) })
		h.svcs = append(h.svcs, svc)
		h.lnks = append(h.lnks, l)
	}
	for _, s := range h.svcs {
		s.Start()
	}
	return h
}

// line returns positions spaced 200 m apart on the x axis (range 250 m, so
// only adjacent nodes hear each other).
func line(n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200}
	}
	return pts
}

func TestNeighborDiscoveryLineTopology(t *testing.T) {
	h := buildSTS(t, line(4), DefaultConfig(), nil)
	if err := h.k.Run(5); err != nil {
		t.Fatal(err)
	}
	wantDeg := []int{1, 2, 2, 1}
	for i, s := range h.svcs {
		if got := len(s.Neighbors()); got != wantDeg[i] {
			t.Fatalf("node %d has %d neighbours %v, want %d", i, got, s.Neighbors(), wantDeg[i])
		}
	}
	if !h.svcs[1].IsNeighbor(0) || !h.svcs[1].IsNeighbor(2) || h.svcs[1].IsNeighbor(3) {
		t.Fatalf("node 1 neighbours = %v", h.svcs[1].Neighbors())
	}
}

func TestTwoHopView(t *testing.T) {
	h := buildSTS(t, line(4), DefaultConfig(), nil)
	if err := h.k.Run(6); err != nil {
		t.Fatal(err)
	}
	// Node 0 should know node 1's neighbours {0, 2}.
	if !h.svcs[0].IsLink(1, 2) {
		t.Fatalf("node 0 two-hop view of 1 = %v, want to contain 2", h.svcs[0].NeighborsOf(1))
	}
	if h.svcs[0].IsLink(1, 3) {
		t.Fatal("node 0 believes a 1->3 link that does not exist")
	}
	// Inner circle of node 1 as seen by node 0: {0, 2} minus self = {2}.
	circ := h.svcs[0].InnerCircleOf(1)
	if len(circ) != 1 || circ[0] != 2 {
		t.Fatalf("InnerCircleOf(1) = %v, want [2]", circ)
	}
}

func TestCompletenessLinkExpiry(t *testing.T) {
	// Node 1 moves out of range at t=10; its links must disappear within
	// ∆STS of its last beacon.
	cfg := DefaultConfig()
	mobs := []mobility.Model{
		mobility.Static(geo.Point{X: 0}),
		&stepMove{at: 10, before: geo.Point{X: 200}, after: geo.Point{X: 5000}},
	}
	h := buildSTS(t, []geo.Point{{X: 0}, {X: 200}}, cfg, mobs)
	if err := h.k.Run(8); err != nil {
		t.Fatal(err)
	}
	if !h.svcs[0].IsNeighbor(1) {
		t.Fatal("nodes never became neighbours")
	}
	if err := h.k.Run(10 + cfg.Delta + 1); err != nil {
		t.Fatal(err)
	}
	if h.svcs[0].IsNeighbor(1) {
		t.Fatal("broken link still reported after ∆STS (Completeness violated)")
	}
}

// stepMove jumps between two positions at a given time.
type stepMove struct {
	at            sim.Time
	before, after geo.Point
}

func (m *stepMove) Pos(t sim.Time) geo.Point {
	if t < m.at {
		return m.before
	}
	return m.after
}

func TestAccuracyFreshLinkAppears(t *testing.T) {
	// Node 1 starts far away and arrives at t=10; the link must appear
	// within roughly a beacon period + handshake.
	mobs := []mobility.Model{
		mobility.Static(geo.Point{X: 0}),
		&stepMove{at: 10, before: geo.Point{X: 5000}, after: geo.Point{X: 200}},
	}
	h := buildSTS(t, []geo.Point{{X: 0}, {X: 5000}}, DefaultConfig(), mobs)
	if err := h.k.Run(9.9); err != nil {
		t.Fatal(err)
	}
	if h.svcs[0].IsNeighbor(1) {
		t.Fatal("distant node reported as neighbour")
	}
	if err := h.k.Run(14); err != nil {
		t.Fatal(err)
	}
	if !h.svcs[0].IsNeighbor(1) || !h.svcs[1].IsNeighbor(0) {
		t.Fatal("fresh link not discovered (One-Hop Accuracy violated)")
	}
}

func TestUnauthenticatedModeSkipsHandshake(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Authenticate = false
	cfg.Handshake = false
	h := buildSTS(t, line(2), cfg, nil)
	if err := h.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if !h.svcs[0].IsNeighbor(1) {
		t.Fatal("unauthenticated mode did not discover neighbour")
	}
	if h.svcs[0].Stats.Handshakes != 0 {
		t.Fatal("handshake ran in unauthenticated mode")
	}
}

func TestForgedBeaconRejected(t *testing.T) {
	h := buildSTS(t, line(2), DefaultConfig(), nil)
	if err := h.k.Run(3); err != nil {
		t.Fatal(err)
	}
	before := h.svcs[1].Stats.BeaconsRejected
	// Node 0 forges a beacon claiming to be node 5 (not in range, key
	// mismatch): signature check must reject it.
	forged := BeaconMsg{From: 5, Seq: 99, Neighbors: []link.NodeID{0, 1}, Sig: []byte{1, 2, 3}, Base: 28}
	_ = h.lnks[0].SendRaw(link.BroadcastID, forged)
	if err := h.k.Run(4); err != nil {
		t.Fatal(err)
	}
	if h.svcs[1].Stats.BeaconsRejected <= before {
		t.Fatal("forged beacon was not rejected")
	}
	if h.svcs[1].IsNeighbor(5) {
		t.Fatal("forged identity became a neighbour")
	}
}

// sniffTap is a link tap that shows fn every envelope crossing its level
// of the chain, with the continuation that forwards it, then forwards it.
type sniffTap func(e link.Env, outbound bool, emit func(link.Env))

func (f sniffTap) Outbound(e link.Env, emit func(link.Env)) { f(e, true, emit); emit(e) }
func (f sniffTap) Inbound(e link.Env, emit func(link.Env))  { f(e, false, emit); emit(e) }

// TestReplayedBeaconRejected: node 0's genuinely signed beacons, captured
// by a receive tap at node 1 and delivered through it again, carry valid
// signatures but stale sequence numbers, so node 1 rejects each replay and
// its view of node 0 stays as it was. With the shard's beacon memo, the
// replayed last beacon is the memo's own pair — one hit, no miss — and the
// replayed first one is not — one miss, checked by the authenticator;
// without a memo neither is counted.
func TestReplayedBeaconRejected(t *testing.T) {
	for _, withMemo := range []bool{false, true} {
		t.Run(fmt.Sprintf("memo=%t", withMemo), func(t *testing.T) {
			var memo *Memo
			if withMemo {
				memo = NewMemo(2)
			}
			h := buildSTSKeyed(t, line(2), DefaultConfig(), nil, testKeys(t, 2, sim.NewRNG(2)), rsaAuth, memo)
			var captured []link.Env
			var replay func(link.Env)
			h.lnks[1].AddTap(sniffTap(func(e link.Env, outbound bool, emit func(link.Env)) {
				if _, ok := e.Msg.(BeaconMsg); ok && !outbound && e.From == 0 {
					captured, replay = append(captured, e), emit
				}
			}))
			if err := h.k.Run(3); err != nil {
				t.Fatal(err)
			}
			s := h.svcs[1]
			if len(captured) < 2 || !s.IsNeighbor(0) {
				t.Fatalf("node 1 captured %d beacons of node 0, neighbour %t; want at least 2, true", len(captured), s.IsNeighbor(0))
			}
			ent := s.neigh[0]
			seq, list := ent.lastSeq, slices.Clone(ent.theirNeigh)
			for _, tc := range []struct {
				name         string
				env          link.Env
				hits, misses uint64 // with the memo
			}{
				{"last beacon", captured[len(captured)-1], 1, 0},
				{"first beacon", captured[0], 0, 1},
			} {
				before := s.Stats
				replay(tc.env)
				got := s.Stats
				if got.BeaconsRejected != before.BeaconsRejected+1 || got.BeaconsReceived != before.BeaconsReceived {
					t.Errorf("%s replayed: rejected %d -> %d, received %d -> %d; want one more rejected, none received",
						tc.name, before.BeaconsRejected, got.BeaconsRejected, before.BeaconsReceived, got.BeaconsReceived)
				}
				hits, misses := got.VerifyMemoHits-before.VerifyMemoHits, got.VerifyMemoMisses-before.VerifyMemoMisses
				if !withMemo {
					tc.hits, tc.misses = 0, 0
				}
				if hits != tc.hits || misses != tc.misses {
					t.Errorf("%s replayed: %d memo hits, %d misses; want %d, %d", tc.name, hits, misses, tc.hits, tc.misses)
				}
				if ent.lastSeq != seq || !slices.Equal(ent.theirNeigh, list) || !s.IsNeighbor(0) {
					t.Errorf("%s replayed: view of node 0 moved: seq %d -> %d, list %v -> %v, neighbour %t",
						tc.name, seq, ent.lastSeq, list, ent.theirNeigh, s.IsNeighbor(0))
				}
			}
		})
	}
}

func TestOnChangeFires(t *testing.T) {
	h := buildSTS(t, line(2), DefaultConfig(), nil)
	changed := 0
	h.svcs[0].OnChange(func() { changed++ })
	if err := h.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("OnChange never fired despite neighbour discovery")
	}
}

func TestConfigValidation(t *testing.T) {
	deps := Deps{}
	if _, err := New(Config{Period: 0, Delta: 2}, deps); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := New(Config{Period: 1.5, Delta: 2}, deps); err == nil {
		t.Error("period >= delta/2 accepted")
	}
	if _, err := New(Config{Period: 0.5, Delta: 2, Authenticate: true}, deps); err == nil {
		t.Error("authenticate without Auth accepted")
	}
	if _, err := New(Config{Period: 0.5, Delta: 2, Handshake: true}, deps); err == nil {
		t.Error("handshake without authenticate accepted")
	}
}

func TestDenseCliqueAllPairs(t *testing.T) {
	// Five nodes in a 100 m square: a full clique.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}, {X: 50, Y: 50}}
	h := buildSTS(t, pts, DefaultConfig(), nil)
	if err := h.k.Run(6); err != nil {
		t.Fatal(err)
	}
	for i, s := range h.svcs {
		if got := len(s.Neighbors()); got != 4 {
			t.Fatalf("node %d has %d neighbours, want 4 (clique)", i, got)
		}
	}
}

func TestTwoHopAccuracy(t *testing.T) {
	// §4.1's Two-Hop Accuracy: after a fresh link forms, it appears in
	// two-hop views within a beacon period or two. Node 2 arrives next to
	// node 1 at t=10; node 0 (two hops away) must learn of the 1-2 link.
	mobs := []mobility.Model{
		mobility.Static(geo.Point{X: 0}),
		mobility.Static(geo.Point{X: 200}),
		&stepMove{at: 10, before: geo.Point{X: 5000}, after: geo.Point{X: 400}},
	}
	h := buildSTS(t, []geo.Point{{X: 0}, {X: 200}, {X: 5000}}, DefaultConfig(), mobs)
	if err := h.k.Run(9); err != nil {
		t.Fatal(err)
	}
	if h.svcs[0].IsLink(1, 2) {
		t.Fatal("phantom two-hop link before node 2 arrived")
	}
	if err := h.k.Run(14); err != nil {
		t.Fatal(err)
	}
	if !h.svcs[0].IsLink(1, 2) {
		t.Fatalf("two-hop view of node 0 missing the fresh 1-2 link: %v", h.svcs[0].NeighborsOf(1))
	}
	if !h.svcs[0].IsTwoHop(2) {
		t.Fatal("IsTwoHop(2) false despite the link being visible")
	}
	if h.svcs[0].TwoHopCount() != 1 {
		t.Fatalf("TwoHopCount = %d, want 1", h.svcs[0].TwoHopCount())
	}
}

// TestBeaconNeighborListReused: a beacon sent with an unchanged view carries
// the list the previous beacon carried and builds it without allocating;
// after a change the beacon carries a fresh list, and the list already sent
// is never written again (receivers and delayed copies may still read it).
func TestBeaconNeighborListReused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Handshake = false
	h := buildSTSWithSimAuth(t, line(3), cfg)
	var sent [][]link.NodeID
	h.lnks[1].AddTap(sniffTap(func(e link.Env, outbound bool, _ func(link.Env)) {
		if b, ok := e.Msg.(BeaconMsg); ok && outbound {
			sent = append(sent, b.Neighbors)
		}
	}))
	if err := h.k.Run(4); err != nil {
		t.Fatal(err)
	}
	s := h.svcs[1]
	var view []link.NodeID
	if n := testing.AllocsPerRun(100, func() { view = s.beaconView() }); n != 0 {
		t.Errorf("beacon view of an unchanged neighbourhood: %.0f allocations, want 0", n)
	}
	if len(sent) < 2 || len(view) != 2 {
		t.Fatalf("%d beacons sent, view %v; want at least 2 beacons and 2 neighbours", len(sent), view)
	}
	last := sent[len(sent)-1]
	if &last[0] != &sent[len(sent)-2][0] || &view[0] != &last[0] {
		t.Fatal("an unchanged view was sent as a new list")
	}
	h.svcs[0].Stop()
	if err := h.k.Run(4 + 2*cfg.Delta); err != nil {
		t.Fatal(err)
	}
	now := sent[len(sent)-1]
	if len(now) != 1 || now[0] != 2 {
		t.Fatalf("after node 0 stopped, node 1 beacons %v, want [2]", now)
	}
	if len(last) != 2 || last[0] != 0 || last[1] != 2 {
		t.Fatalf("a sent list was rewritten: %v, want [0 2]", last)
	}
}
