package diffusion

import (
	"math"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

type payload struct {
	tag  string
	size int
}

func (p payload) Size() int { return p.size }

type diffNet struct {
	k     *sim.Kernel
	svcs  []*Service
	links []*link.Service
	got   []struct {
		src  link.NodeID
		hops int
		msg  link.Message
	}
}

// buildDiff assembles nodes; node 0 is the sink. Radio range 40 m (the
// sensor scenario's).
func buildDiff(t *testing.T, positions []geo.Point) *diffNet {
	t.Helper()
	k := sim.NewKernel()
	params := radio.Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8}
	ch := radio.NewChannel(k, params)
	rng := sim.NewRNG(1)
	net := &diffNet{k: k}
	for i, p := range positions {
		m := mac.New(k, ch, mobility.Static(p), nil, rng.SplitN("mac", i), mac.Default80211())
		l := link.NewService(m)
		svc, err := New(DefaultConfig(), Deps{ID: l.ID(), K: k, Link: l, RNG: rng.SplitN("diff", i)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			svc.SetSink(true)
			svc.OnDeliver(func(src link.NodeID, hops int, msg link.Message) {
				net.got = append(net.got, struct {
					src  link.NodeID
					hops int
					msg  link.Message
				}{src, hops, msg})
			})
		}
		s := svc
		l.OnRecv(func(e link.Env) { s.HandleEnv(e) })
		net.svcs = append(net.svcs, svc)
		net.links = append(net.links, l)
	}
	net.svcs[0].Start()
	return net
}

// chain returns positions 30 m apart (range 40 m): a line to the sink.
func chain(n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 30}
	}
	return pts
}

func TestGradientEstablished(t *testing.T) {
	net := buildDiff(t, chain(4))
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		hops, ok := net.svcs[i].HopsToSink()
		if !ok {
			t.Fatalf("node %d has no gradient", i)
		}
		if hops != i {
			t.Fatalf("node %d gradient depth = %d, want %d", i, hops, i)
		}
	}
	if h, ok := net.svcs[0].HopsToSink(); !ok || h != 0 {
		t.Fatalf("sink depth = %d/%v, want 0/true", h, ok)
	}
}

func TestDataReachesSink(t *testing.T) {
	net := buildDiff(t, chain(5))
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := net.svcs[4].Send(payload{tag: "hello", size: 64}); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(4); err != nil {
		t.Fatal(err)
	}
	if len(net.got) != 1 {
		t.Fatalf("sink received %d messages, want 1", len(net.got))
	}
	if net.got[0].src != 4 {
		t.Fatalf("src = %v, want 4", net.got[0].src)
	}
	if p, ok := net.got[0].msg.(payload); !ok || p.tag != "hello" {
		t.Fatalf("payload = %v", net.got[0].msg)
	}
	if net.got[0].hops != 4 {
		t.Fatalf("hops = %d, want 4", net.got[0].hops)
	}
}

func TestSendWithoutGradientFails(t *testing.T) {
	net := buildDiff(t, []geo.Point{{X: 0}, {X: 1000}}) // node 1 isolated
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	if err := net.svcs[1].Send(payload{size: 10}); err == nil {
		t.Fatal("send without gradient succeeded")
	}
	if net.svcs[1].Stats.DataDropped != 1 {
		t.Fatalf("stats = %+v", net.svcs[1].Stats)
	}
}

func TestSinkLocalDelivery(t *testing.T) {
	net := buildDiff(t, chain(2))
	if err := net.k.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := net.svcs[0].Send(payload{tag: "self", size: 8}); err != nil {
		t.Fatal(err)
	}
	if len(net.got) != 1 || net.got[0].hops != 0 {
		t.Fatalf("sink local delivery got %v", net.got)
	}
}

func TestGradientPrefersShorterPath(t *testing.T) {
	// Diamond: sink(0) - {1, 2} - 3, where 2 also hears the sink but 3
	// only hears 1 and 2. Node 3 should pick a 2-hop gradient.
	pts := []geo.Point{
		{X: 0, Y: 0},    // sink
		{X: 30, Y: 10},  // relay A
		{X: 30, Y: -10}, // relay B
		{X: 60, Y: 0},   // leaf
	}
	net := buildDiff(t, pts)
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	hops, ok := net.svcs[3].HopsToSink()
	if !ok || hops != 2 {
		t.Fatalf("leaf depth = %d/%v, want 2", hops, ok)
	}
}

func TestGradientExpires(t *testing.T) {
	net := buildDiff(t, chain(2))
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := net.svcs[1].HopsToSink(); !ok {
		t.Fatal("no gradient")
	}
	// Stop the sink's interests; after GradientTimeout the gradient dies.
	net.svcs[0].Stop()
	if err := net.k.Run(2 + DefaultConfig().GradientTimeout + 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := net.svcs[1].HopsToSink(); ok {
		t.Fatal("gradient survived past timeout without refresh")
	}
}

func TestPeriodicRefloodRefreshesGradient(t *testing.T) {
	net := buildDiff(t, chain(3))
	horizon := DefaultConfig().GradientTimeout * 3
	if err := net.k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if _, ok := net.svcs[2].HopsToSink(); !ok {
		t.Fatal("gradient not kept alive by periodic interests")
	}
	if net.svcs[0].Stats.InterestsSent < 3 {
		t.Fatalf("interests sent = %d, want several", net.svcs[0].Stats.InterestsSent)
	}
}

// sinkHopsTap sets the hop count of every interest its link receives
// from the sink (node 0), below the link's own check.
type sinkHopsTap int

func (h sinkHopsTap) Outbound(e link.Env, emit func(link.Env)) { emit(e) }

func (h sinkHopsTap) Inbound(e link.Env, emit func(link.Env)) {
	if _, ok := e.Msg.(InterestMsg); ok && e.From == 0 {
		e.Hops = int(h)
	}
	emit(e)
}

// TestInterestHopsAtIntEnd: on a chain sink–1–2, node 1 receives the
// sink's interests at a set hop count. At math.MaxInt the interest sets
// no gradient — node 1's link drops it before e.Hops+1 can wrap. At
// MaxInt−1 node 1 is MaxInt hops from the sink, and its re-flood, at
// MaxInt, is dropped by node 2's link in turn.
func TestInterestHopsAtIntEnd(t *testing.T) {
	for _, tc := range []struct {
		hops int
		want []int // HopsToSink of nodes 1 and 2; -1: no gradient
	}{
		{math.MaxInt, []int{-1, -1}},
		{math.MaxInt - 1, []int{math.MaxInt, -1}},
		{0, []int{1, 2}},
	} {
		net := buildDiff(t, chain(3))
		net.links[1].AddTap(sinkHopsTap(tc.hops))
		if err := net.k.Run(2); err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			hops, ok := net.svcs[i+1].HopsToSink()
			if !ok {
				hops = -1
			}
			if hops != want {
				t.Errorf("interest at %d hops: node %d is %d hops from the sink, want %d", tc.hops, i+1, hops, want)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, Deps{}); err == nil {
		t.Fatal("zero config accepted")
	}
}
