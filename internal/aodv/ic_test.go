package aodv_test

import (
	"testing"

	"innercircle/internal/aodv"
	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

// icNet is the full inner-circle AODV stack over the node assembly.
type icNet struct {
	net      *node.Network
	routers  []*aodv.Router
	adapters []*aodv.ICAdapter
	got      [][]aodv.Data
}

// buildICNet assembles an IC-protected AODV network at the given positions.
func buildICNet(t *testing.T, positions []geo.Point, level int) *icNet {
	t.Helper()
	out := &icNet{
		routers:  make([]*aodv.Router, len(positions)),
		adapters: make([]*aodv.ICAdapter, len(positions)),
		got:      make([][]aodv.Data, len(positions)),
	}
	stsCfg := sts.DefaultConfig()
	stsCfg.Handshake = false // keyed-MAC beacons; see DESIGN.md
	cfg := node.Config{
		N:      len(positions),
		Seed:   7,
		Radio:  radio.Default80211(),
		MAC:    mac.Default80211(),
		Energy: energy.NS2Default(),
		Mobility: func(i int, _ *sim.RNG) mobility.Model {
			return mobility.Static(positions[i])
		},
		IC:   true,
		STS:  stsCfg,
		Vote: vote.Config{Mode: vote.Deterministic, L: level, RoundTimeout: 0.3, Retries: 2},
		Callbacks: func(nd *node.Node) vote.Callbacks {
			r, err := aodv.New(aodv.DefaultConfig(), aodv.Deps{
				ID: nd.ID, K: nd.K, Link: nd.Link, RNG: nd.RNG.Split("aodv"),
			})
			if err != nil {
				t.Fatal(err)
			}
			adapter, cbs := aodv.NewICAdapter(nd.ID, r, nd.Intercept, func(v []byte) error { return nd.Vote.Propose(v) })
			out.routers[nd.Index] = r
			out.adapters[nd.Index] = adapter
			i := nd.Index
			r.OnDeliver(func(d aodv.Data) { out.got[i] = append(out.got[i], d) })
			nd.Handle(r.HandleEnv)
			return cbs
		},
	}
	net, err := node.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.net = net
	net.StartSTS()
	return out
}

func lineWithAttacker() []geo.Point {
	// S(0) - N1(1) - N2(2) - D(3) line, attacker M(4) near S and N1.
	return []geo.Point{
		{X: 0}, {X: 200}, {X: 400}, {X: 600},
		{X: 100, Y: 150},
	}
}

func TestICRouteEstablishedThroughVoting(t *testing.T) {
	// Dense square so every hop has enough voters for L=1.
	pts := []geo.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0},
		{X: 100, Y: 150}, {X: 300, Y: 150},
	}
	n := buildICNet(t, pts, 1)
	// Let STS converge, then send.
	if err := n.net.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := n.routers[0].Send(2, "guarded", 512); err != nil {
		t.Fatal(err)
	}
	if err := n.net.Run(15); err != nil {
		t.Fatal(err)
	}
	if len(n.got[2]) != 1 {
		t.Fatalf("destination got %d packets, want 1 (IC voting should establish the route)", len(n.got[2]))
	}
	// Voting actually happened: the destination proposed its RREP.
	if n.adapters[2].Stats.RrepsProposed == 0 {
		t.Fatal("no RREP was proposed to the inner circle")
	}
	if n.net.Nodes[2].Vote.Stats.RoundsAgreed == 0 {
		t.Fatal("no voting round completed at the destination")
	}
}

func TestICNeutralizesBlackHole(t *testing.T) {
	n := buildICNet(t, lineWithAttacker(), 1)
	n.routers[4].SetBlackHole(true)
	if err := n.net.Run(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := n.routers[0].Send(3, i, 512); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.net.Run(25); err != nil {
		t.Fatal(err)
	}
	if len(n.got[3]) == 0 {
		t.Fatal("no packets delivered: IC failed to establish the honest route")
	}
	// The attacker must not be on the path.
	if nh, ok := n.routers[0].NextHop(3); ok && nh == 4 {
		t.Fatal("source still routes through the black hole")
	}
	if n.routers[4].Stats.BlackHoleDrops > 0 {
		t.Fatalf("attacker absorbed %d packets; the forged RREP was accepted somewhere",
			n.routers[4].Stats.BlackHoleDrops)
	}
	// The forged raw RREP was suppressed and the attacker suspected.
	suppressed := false
	for i, nd := range n.net.Nodes {
		if i == 4 {
			continue
		}
		if nd.Intercept.Stats.SuppressedBadSig > 0 {
			suppressed = true
		}
	}
	if !suppressed {
		t.Fatal("no node suppressed the attacker's raw RREP")
	}
}

func TestICForwardingSetsGrow(t *testing.T) {
	pts := []geo.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0},
		{X: 100, Y: 150}, {X: 300, Y: 150},
	}
	n := buildICNet(t, pts, 1)
	if err := n.net.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := n.routers[0].Send(2, "x", 256); err != nil {
		t.Fatal(err)
	}
	if err := n.net.Run(15); err != nil {
		t.Fatal(err)
	}
	if len(n.got[2]) != 1 {
		t.Fatalf("delivery failed (%d packets)", len(n.got[2]))
	}
	// Some node must have recorded forwarders for destination 2.
	seq := n.routers[2].Seq()
	found := false
	for _, a := range n.adapters {
		if len(a.AllowedForwarders(2, seq)) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no fw entries recorded for dst=2 seq=%d", seq)
	}
}

func TestICAttackerCannotVoteItselfARoute(t *testing.T) {
	// The attacker initiates its own voting round proposing a forged RREP
	// for destination D (node 3). Its neighbours must refuse to ack.
	n := buildICNet(t, lineWithAttacker(), 1)
	if err := n.net.Run(5); err != nil {
		t.Fatal(err)
	}
	forged := aodv.RREP{Orig: 0, Dst: 3, DstSeq: 10000, HopCount: 1, NextHop: 0}
	if err := n.net.Nodes[4].Vote.Propose(aodv.EncodeRREP(forged)); err != nil {
		t.Fatal(err)
	}
	if err := n.net.Run(15); err != nil {
		t.Fatal(err)
	}
	if n.net.Nodes[4].Vote.Stats.RoundsAgreed != 0 {
		t.Fatal("inner circle approved the attacker's forged RREP")
	}
	// And the voters recorded the rejected check.
	rejected := false
	for i, a := range n.adapters {
		if i != 4 && a.Stats.ChecksRejected > 0 {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("no voter rejected the forged proposal")
	}
}

// TestICOverheadExists sanity-checks the trade-off the paper reports: the
// IC configuration sends more control bytes than plain AODV.
func TestICOverheadExists(t *testing.T) {
	pts := lineWithAttacker()
	n := buildICNet(t, pts, 1)
	if err := n.net.Run(10); err != nil {
		t.Fatal(err)
	}
	e := n.net.TotalEnergy()
	// Plain network, same layout, no STS/IC.
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(7)
	var meters []*energy.Meter
	for i, p := range pts {
		meter := energy.NewMeter(energy.NS2Default())
		meters = append(meters, meter)
		m := mac.New(k, ch, mobility.Static(p), meter, rng.SplitN("mac", i), mac.Default80211())
		l := link.NewService(m)
		r, err := aodv.New(aodv.DefaultConfig(), aodv.Deps{ID: l.ID(), K: k, Link: l, RNG: rng.SplitN("a", i)})
		if err != nil {
			t.Fatal(err)
		}
		rr := r
		l.OnRecv(func(e link.Env) { rr.HandleEnv(e) })
	}
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	var plain float64
	for _, m := range meters {
		plain += m.Consumed(k.Now())
	}
	if e <= plain {
		t.Fatalf("IC energy %.3f J <= plain %.3f J; STS beacons should cost something", e, plain)
	}
}
