package node

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"innercircle/internal/crypto/nsl"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

// TestShardedBeaconMemoPerShard builds a static field on 2 and 4 shards,
// once as the Fig. 8 stack (RSA beacon signatures, statistical voting) and
// once with Fig. 7's SimAuth MACs and deterministic voting (no RSA keys),
// and runs it on a goroutine per shard: every shard's topology services
// must verify through that shard's beacon memo and no other, and no beacon
// verdict may reach the voting memos. Under -race this is also the check
// that no beacon memo is reached from two shard goroutines.
func TestShardedBeaconMemoPerShard(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // four P for the four executor slots below
	defer runtime.GOMAXPROCS(prev)

	const (
		nodes   = 48
		rangeM  = 100.0
		stripeM = 150.0 // each stripe wider than one radio range
	)
	keys, err := GenerateKeySetSeeded(nodes, 512, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		shardOf := func(p geo.Point) int {
			return max(0, min(shards-1, int(p.X/stripeM)))
		}
		build := func(t *testing.T, keys []*nsl.KeyPair, mode vote.Mode) *Network {
			cfg := baseConfig(nodes)
			cfg.Seed = 21
			cfg.Radio = radio.Params{Range: rangeM, Bitrate: 2e6, PropSpeed: 3e8}
			cfg.Mobility = func(i int, _ *sim.RNG) mobility.Model {
				// Rows of four across the stripes, offset so no two nodes
				// share a distance (equal propagation delays tie).
				col, row := i%(nodes/4), i/(nodes/4)
				return mobility.Static(geo.Point{
					X: float64(col)*float64(shards)*stripeM/float64(nodes/4) + 7.3*float64(row) + 1,
					Y: 41.7*float64(row) + 0.37*float64(col),
				})
			}
			cfg.IC = true
			cfg.STS = sts.Config{Period: 45, Delta: 100, Authenticate: true, BeaconBaseBytes: 28}
			cfg.Vote = vote.Config{Mode: mode, L: 1, RoundTimeout: 0.5, Retries: 1}
			cfg.Keys = keys
			cfg.SigWireBytes = 64
			cfg.Shards = shards
			cfg.ShardOf = shardOf
			cfg.ShardBorder = func(p geo.Point) bool {
				own := shardOf(p)
				return shardOf(geo.Point{X: p.X - rangeM, Y: p.Y}) != own || shardOf(geo.Point{X: p.X + rangeM, Y: p.Y}) != own
			}
			net, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			net.StartSTSJittered(net.RNG.Split("sts-start"), 2)
			if err := net.RunSlots(100, shards); err != nil {
				t.Fatal(err)
			}
			for _, nd := range net.Nodes {
				if nd.Shard != shardOf(geo.Point(nd.Mob.(mobility.Static))) {
					t.Fatalf("node %d records shard %d", nd.Index, nd.Shard)
				}
			}
			return net
		}
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, sc := range []struct {
				name string
				keys []*nsl.KeyPair
				mode vote.Mode
			}{{"rsa512", keys, vote.Statistical}, {"sim", nil, vote.Deterministic}} {
				t.Run(sc.name, func(t *testing.T) {
					net := build(t, sc.keys, sc.mode)
					if len(net.BeaconMemos) != shards || len(net.Memos) != shards {
						t.Fatalf("%d beacon memos and %d vote memos for %d shards", len(net.BeaconMemos), len(net.Memos), shards)
					}
					seen := map[*sts.Memo]bool{}
					for _, m := range net.BeaconMemos {
						if m == nil || seen[m] {
							t.Fatal("a beacon memo is missing or shared between shards")
						}
						seen[m] = true
					}
					// A beacon memo holds an entry for each sender whose
					// beacon the services wired to it accepted, and with
					// ∆STS longer than the run every accepted sender is still
					// in a service's view: the sets match only if each
					// shard's nodes filled their own shard's memo.
					heard := make([][]link.NodeID, shards)
					for _, nd := range net.Nodes {
						heard[nd.Shard] = append(heard[nd.Shard], nd.STS.Neighbors()...)
					}
					misses, hits := memoCounts(net, shards)
					for s, memo := range net.BeaconMemos {
						slices.Sort(heard[s])
						heard[s] = slices.Compact(heard[s])
						if got := memo.Senders(); misses[s] == 0 || !slices.Equal(got, heard[s]) {
							t.Errorf("shard %d: beacon memo holds senders %v, its nodes accepted %v (%d misses)", s, got, heard[s], misses[s])
						}
					}
					if hits == 0 {
						t.Error("no beacon check was answered from a memo")
					}
					for s, memo := range net.Memos {
						if memo.Len() != 0 {
							t.Errorf("shard %d: vote memo holds %d verdicts though no vote ran: beacon traffic leaked into it", s, memo.Len())
						}
					}
				})
			}
		})
	}
}

// memoCounts sums the topology services' beacon memo misses per shard and
// their hits over the network.
func memoCounts(net *Network, shards int) (misses []uint64, hits uint64) {
	misses = make([]uint64, shards)
	for _, nd := range net.Nodes {
		misses[nd.Shard] += nd.STS.Stats.VerifyMemoMisses
		hits += nd.STS.Stats.VerifyMemoHits
	}
	return misses, hits
}
