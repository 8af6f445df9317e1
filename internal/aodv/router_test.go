package aodv

import (
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

// plainNet is a harness of routers without any inner-circle machinery.
type plainNet struct {
	k       *sim.Kernel
	routers []*Router
	links   []*link.Service
	macs    []*mac.MAC
	got     [][]Data
	// hops holds, per node, the envelope hop count of every data packet
	// that arrived addressed to it.
	hops [][]int
}

func buildPlain(t *testing.T, positions []geo.Point) *plainNet {
	t.Helper()
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(1)
	net := &plainNet{k: k, got: make([][]Data, len(positions)), hops: make([][]int, len(positions))}
	for i, p := range positions {
		m := mac.New(k, ch, mobility.Static(p), nil, rng.SplitN("mac", i), mac.Default80211())
		l := link.NewService(m)
		r, err := New(DefaultConfig(), Deps{ID: l.ID(), K: k, Link: l, RNG: rng.SplitN("aodv", i)})
		if err != nil {
			t.Fatal(err)
		}
		i := i
		r.OnDeliver(func(d Data) { net.got[i] = append(net.got[i], d) })
		rr := r
		l.OnRecv(func(e link.Env) {
			if d, ok := e.Msg.(Data); ok && d.Dst == rr.deps.ID {
				net.hops[i] = append(net.hops[i], e.Hops)
			}
			rr.HandleEnv(e)
		})
		net.routers = append(net.routers, r)
		net.links = append(net.links, l)
		net.macs = append(net.macs, m)
	}
	return net
}

// linePts spaces nodes 200 m apart (250 m radio range).
func linePts(n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200}
	}
	return pts
}

func TestRouteDiscoveryAndDelivery(t *testing.T) {
	net := buildPlain(t, linePts(4))
	if err := net.routers[0].Send(3, "payload", 512); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(net.got[3]) != 1 {
		t.Fatalf("destination received %d packets, want 1", len(net.got[3]))
	}
	d := net.got[3][0]
	if d.Src != 0 || d.Payload != "payload" || len(net.hops[3]) != 1 || net.hops[3][0] != 2 {
		t.Fatalf("delivered = %+v with envelope hops %v, want src=0 hops=2", d, net.hops[3])
	}
	if !net.routers[0].HasRoute(3) {
		t.Fatal("originator has no route after delivery")
	}
	if nh, ok := net.routers[0].NextHop(3); !ok || nh != 1 {
		t.Fatalf("next hop = %v, want 1", nh)
	}
	// Reverse route at the destination (toward the originator).
	if !net.routers[3].HasRoute(0) {
		t.Fatal("destination has no reverse route")
	}
}

func TestSubsequentPacketsUseCachedRoute(t *testing.T) {
	net := buildPlain(t, linePts(3))
	if err := net.routers[0].Send(2, 0, 512); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	rreqsAfterFirst := net.routers[0].Stats.RreqOriginated
	for i := 1; i <= 5; i++ {
		if err := net.routers[0].Send(2, i, 512); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.k.Run(6); err != nil {
		t.Fatal(err)
	}
	if len(net.got[2]) != 6 {
		t.Fatalf("delivered %d, want 6", len(net.got[2]))
	}
	if net.routers[0].Stats.RreqOriginated != rreqsAfterFirst {
		t.Fatal("cached route not used: extra RREQs originated")
	}
}

func TestDeliveryToSelf(t *testing.T) {
	net := buildPlain(t, linePts(2))
	if err := net.routers[0].Send(0, "loop", 100); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(net.got[0]) != 1 {
		t.Fatalf("self delivery = %d, want 1", len(net.got[0]))
	}
}

func TestUnreachableDestinationDropsAfterRetries(t *testing.T) {
	net := buildPlain(t, linePts(2))
	if err := net.routers[0].Send(99, "void", 100); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(10); err != nil {
		t.Fatal(err)
	}
	if net.routers[0].Stats.DataDropped != 1 {
		t.Fatalf("dropped = %d, want 1", net.routers[0].Stats.DataDropped)
	}
	wantReqs := uint64(DefaultConfig().RreqRetries + 1)
	if net.routers[0].Stats.RreqOriginated != wantReqs {
		t.Fatalf("RREQs = %d, want %d", net.routers[0].Stats.RreqOriginated, wantReqs)
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	net := buildPlain(t, linePts(3))
	s0 := net.routers[2].Seq()
	if err := net.routers[0].Send(2, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if net.routers[2].Seq() <= s0 {
		t.Fatal("destination sequence number did not increase on reply")
	}
}

func TestBlackHoleAttractsAndDropsTraffic(t *testing.T) {
	// S(0) - N(1) - D(2) in a line; attacker M(3) near S. M forges a
	// high-sequence RREP, so S routes via M, which drops everything.
	pts := append(linePts(3), geo.Point{X: 50, Y: 150})
	net := buildPlain(t, pts)
	net.routers[3].SetBlackHole(true)
	for i := 0; i < 10; i++ {
		if err := net.routers[0].Send(2, i, 512); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.k.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(net.got[2]) != 0 {
		t.Fatalf("destination received %d packets despite black hole, want 0", len(net.got[2]))
	}
	if net.routers[3].Stats.BlackHoleDrops == 0 {
		t.Fatal("attacker dropped nothing — attack did not attract traffic")
	}
	if nh, ok := net.routers[0].NextHop(2); !ok || nh != 3 {
		t.Fatalf("source next hop = %v, want the attacker (3)", nh)
	}
}

func TestBrokenLinkTriggersRerrAndRediscovery(t *testing.T) {
	net := buildPlain(t, linePts(3))
	if err := net.routers[0].Send(2, "first", 256); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(net.got[2]) != 1 {
		t.Fatalf("first packet not delivered")
	}
	// Kill the middle node's radio: the 0->1 link breaks.
	net.macs[1].Transceiver().SetDown(true)
	if err := net.routers[0].Send(2, "second", 256); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(15); err != nil {
		t.Fatal(err)
	}
	// The packet cannot be delivered (node 1 was the only path), but the
	// route must have been invalidated via the MAC failure signal.
	if net.routers[0].HasRoute(2) {
		t.Fatal("stale route survived link breakage")
	}
}

func TestRERRInvalidatesRoute(t *testing.T) {
	net := buildPlain(t, linePts(3))
	if err := net.routers[0].Send(2, "x", 128); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if !net.routers[0].HasRoute(2) {
		t.Fatal("no route established")
	}
	// Node 1 announces that 2 became unreachable with a fresher sequence.
	_ = net.links[1].SendRaw(link.BroadcastID, RERR{Dst: 2, DstSeq: 1 << 30, SeqKnown: true})
	if err := net.k.Run(4); err != nil {
		t.Fatal(err)
	}
	if net.routers[0].HasRoute(2) {
		t.Fatal("RERR did not invalidate the route")
	}
}

func TestEncodeDecodeRREP(t *testing.T) {
	in := RREP{Orig: 5, Dst: 9, DstSeq: 12345, HopCount: 3, NextHop: 7}
	out, err := DecodeRREP(EncodeRREP(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if _, err := DecodeRREP([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, Deps{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// injectTap replaces the first envelope its link receives with envs, which
// then take the path of a received frame: the link's hop check, its
// filters and the handler.
type injectTap struct{ envs []link.Env }

func (t *injectTap) Outbound(e link.Env, emit func(link.Env)) { emit(e) }

func (t *injectTap) Inbound(e link.Env, emit func(link.Env)) {
	if t.envs == nil {
		emit(e)
		return
	}
	for _, x := range t.envs {
		emit(x)
	}
	t.envs = nil
}

// TestRobustnessMalformedTraffic storms a router with adversarial and
// malformed protocol messages, received through its link: no panics, no
// phantom routes.
func TestRobustnessMalformedTraffic(t *testing.T) {
	net := buildPlain(t, linePts(2))
	r := net.routers[0]
	net.links[0].AddTap(&injectTap{envs: []link.Env{
		{From: 99, Msg: RREQ{Orig: 99, Dst: 0, ID: 1}, Hops: -5},
		{From: -1, Msg: RREQ{Orig: -1, Dst: -1, ID: 0}},
		{From: 5, Msg: RREP{Orig: 0, Dst: 5, DstSeq: ^uint32(0), HopCount: 1 << 30, NextHop: 0}},
		{From: 5, Msg: RREP{}},
		{From: 5, Msg: RERR{Dst: 77, DstSeq: 12, SeqKnown: true}},
		{From: 5, Msg: RERR{}},
		{From: 5, Msg: Data{Src: 5, Dst: 42, Bytes: -1}},
		{From: 5, Msg: Data{Src: 5, Dst: 0, Payload: nil}},
	}})
	// Node 1's frame is the one the tap replaces.
	if err := net.links[1].SendRaw(0, RERR{}); err != nil {
		t.Fatal(err)
	}
	// The forged high-seq RREP from node 5 installs a route (that is
	// AODV's inherent trust model, the very weakness the inner circle
	// fixes); but the malformed ones must not corrupt state further.
	if err := net.k.Run(1); err != nil {
		t.Fatal(err)
	}
	// A negative hop count is no forward's count: the link drops the RREQ
	// carrying it, so no reverse route toward 99 exists.
	if rt := r.routes[99]; rt != nil {
		t.Fatalf("reverse route toward 99 from a -5 hop RREQ: %+v", rt)
	}
	if rt := r.routes[5]; rt == nil || !rt.valid {
		t.Fatalf("the forged RREP installed no route toward 5: %+v", rt)
	}
	if net.routers[0].Stats.DataDelivered != 1 {
		t.Fatalf("local delivery miscounted: %+v", net.routers[0].Stats)
	}
}
