package diffusion

import (
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

// buildFlood assembles a flood-mode network; node 0 is the sink.
func buildFlood(t testing.TB, positions []geo.Point) *diffNet {
	t.Helper()
	k := sim.NewKernel()
	params := radio.Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8}
	ch := radio.NewChannel(k, params)
	rng := sim.NewRNG(1)
	net := &diffNet{k: k}
	cfg := DefaultConfig()
	cfg.Unreliable = true
	cfg.FloodData = true
	for i, p := range positions {
		m := mac.New(k, ch, mobility.Static(p), nil, rng.SplitN("mac", i), mac.Default80211())
		l := link.NewService(m)
		svc, err := New(cfg, Deps{ID: l.ID(), K: k, Link: l, RNG: rng.SplitN("diff", i)})
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

func TestFloodReachesSinkWithoutGradient(t *testing.T) {
	// Flood mode delivers even before any interest establishes gradients:
	// dissemination is gradient-free.
	net := buildFlood(t, chain(5))
	if err := net.svcs[4].Send(payload{tag: "flooded", size: 48}); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(net.got) != 1 {
		t.Fatalf("sink received %d, want 1", len(net.got))
	}
	if p, ok := net.got[0].msg.(payload); !ok || p.tag != "flooded" {
		t.Fatalf("payload = %v", net.got[0].msg)
	}
}

func TestFloodNeverDeliversDuplicates(t *testing.T) {
	// In a diamond, two copies of every flood converge on the sink; dedup
	// must deliver each message at most once (unreliable broadcasts may
	// lose some entirely — that is flood mode's documented nature).
	pts := []geo.Point{
		{X: 0, Y: 0},    // sink
		{X: 30, Y: 15},  // relay A
		{X: 30, Y: -15}, // relay B
		{X: 60, Y: 0},   // source
	}
	net := buildFlood(t, pts)
	const sends = 10
	for i := 0; i < sends; i++ {
		at := sim.Time(i+1) * 0.3
		net.k.ScheduleFire(at, func() {
			_ = net.svcs[3].Send(payload{tag: "d", size: 32})
		})
	}
	if err := net.k.Run(6); err != nil {
		t.Fatal(err)
	}
	if len(net.got) > sends {
		t.Fatalf("sink delivered %d > %d sends: duplicate delivery", len(net.got), sends)
	}
	if len(net.got) < sends/2 {
		t.Fatalf("sink delivered only %d/%d: flood unexpectedly lossy", len(net.got), sends)
	}
}

func TestFloodRebroadcastsOnce(t *testing.T) {
	net := buildFlood(t, chain(4))
	if err := net.svcs[3].Send(payload{tag: "x", size: 32}); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 2 each forward exactly once.
	for _, i := range []int{1, 2} {
		if got := net.svcs[i].Stats.DataForwarded; got != 1 {
			t.Fatalf("node %d forwarded %d times, want 1", i, got)
		}
	}
	// The source does not re-forward echoes of its own message.
	if net.svcs[3].Stats.DataForwarded != 0 {
		t.Fatal("source re-forwarded its own flood")
	}
}

func TestFloodDistinctMessagesAllDelivered(t *testing.T) {
	net := buildFlood(t, chain(3))
	for i := 0; i < 5; i++ {
		if err := net.svcs[2].Send(payload{tag: "m", size: 16}); err != nil {
			t.Fatal(err)
		}
		if err := net.k.Run(sim.Time(i+1) * 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.k.Run(3); err != nil {
		t.Fatal(err)
	}
	// Unreliable broadcasts may lose an occasional message to a collision;
	// most must arrive and none twice.
	if len(net.got) < 4 || len(net.got) > 5 {
		t.Fatalf("sink delivered %d, want 4..5 of 5 distinct messages", len(net.got))
	}
}
