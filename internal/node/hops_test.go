package node

import (
	"math"
	"slices"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/link"
)

// hopsTap sets each outbound ping's envelope hop count to hops[ping.n].
type hopsTap struct{ hops []int }

func (t hopsTap) Outbound(e link.Env, emit func(link.Env)) {
	if p, ok := e.Msg.(ping); ok {
		e.Hops = t.hops[p.n]
	}
	emit(e)
}

func (hopsTap) Inbound(e link.Env, emit func(link.Env)) { emit(e) }

// TestEnvelopeHopsCrossTheAir: a tap on the sender sets the envelope hop
// count, which crosses the air in the MAC header. The receiving link drops
// a count no forward can make (negative, or MaxInt, which one more forward
// would wrap); every other one reaches the handler exactly — zero, large
// and MaxInt−1 — on one kernel and between two shards, in both directions.
func TestEnvelopeHopsCrossTheAir(t *testing.T) {
	hops := []int{-5, 0, math.MaxInt, math.MinInt, math.MaxInt - 1}
	if big := int64(1) << 40; int64(int(big)) == big {
		hops = append(hops, int(big))
	}
	for _, shards := range []int{1, 2} {
		cfg := baseConfig(2)
		if shards > 1 {
			// Nodes at x = 0 and 100 m, the stripe boundary at 50 m: each
			// node's home is its own shard, both within range of the
			// boundary.
			cfg.Shards = shards
			cfg.ShardOf = func(p geo.Point) int { return int(min(p.X/50, 1)) }
			cfg.ShardBorder = func(geo.Point) bool { return true }
		}
		net, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := net.Nodes[1].Shard; got != shards-1 {
			t.Fatalf("%d shards: node 1 on shard %d", shards, got)
		}
		got := make([][]int, len(net.Nodes))
		for i, nd := range net.Nodes {
			nd.Link.AddTap(hopsTap{hops})
			nd.Handle(func(e link.Env) bool {
				p, ok := e.Msg.(ping)
				if ok {
					got[i] = append(got[i], p.n, e.Hops)
				}
				return ok
			})
		}
		var want []int
		for n, h := range hops {
			if h >= 0 && h != math.MaxInt {
				want = append(want, n, h)
			}
			for i, nd := range net.Nodes {
				if err := nd.Link.SendRaw(net.Nodes[1-i].ID, ping{n}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := net.RunSlots(1, shards); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !slices.Equal(got[i], want) {
				t.Fatalf("%d shards: node %d received (ping, hops) %v, want %v", shards, i, got[i], want)
			}
		}
	}
}
