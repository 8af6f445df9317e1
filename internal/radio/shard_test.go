package radio

import (
	"reflect"
	"runtime"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

const shardLookahead sim.Duration = 10 * sim.Microsecond

// shardTestPositions is a line of nodes straddling the stripe boundary at
// x = Range (250 m): 0↔1, 1↔2, 2↔3 and the 160 m diagonals are in range,
// 0↔3 (300 m) is not. Every node is within one range of the boundary, so
// all are border nodes.
var shardTestPositions = []geo.Point{
	{X: 100, Y: 100}, {X: 240, Y: 100}, {X: 260, Y: 100}, {X: 400, Y: 100},
}

// shardTestSends staggers transmissions so the first pair overlaps in the
// air (collisions at common receivers) and later ones deliver cleanly. All
// timestamps are distinct, so no cross-shard message can tie with a local
// event.
var shardTestSends = []struct {
	node int
	at   sim.Duration
	pay  string
}{
	{0, 1 * sim.Millisecond, "a0"},
	{1, 1500 * sim.Microsecond, "b0"}, // overlaps a0: both collide at node 2
	{2, 5 * sim.Millisecond, "c0"},
	{3, 8 * sim.Millisecond, "d0"},
	{0, 11 * sim.Millisecond, "a1"},
	{2, 14 * sim.Millisecond, "e0"},
}

// runShardReference plays the send schedule on a plain sequential channel
// and returns per-node received payloads and the channel stats.
func runShardReference(t *testing.T) ([][]any, Stats) {
	t.Helper()
	k := sim.NewKernel()
	ch, trs, got := testNet(k, Default80211(), shardTestPositions)
	for _, s := range shardTestSends {
		s := s
		k.ScheduleFire(s.at, func() {
			if err := ch.Send(trs[s.node], Frame{Bytes: 512, Payload: s.pay}); err != nil {
				t.Errorf("send %s: %v", s.pay, err)
			}
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	return got, ch.Stats
}

// TestShardedChannelMatchesSequential: the same send schedule on a
// two-shard channel must deliver the same payloads to the same nodes and
// produce the same channel totals as the sequential path, under both
// executors. ShardSet.Run picks the executor from the cores it observes, so
// the test drives GOMAXPROCS: one core is the sequential executor, four
// (with an idle core budget) one slot per shard.
func TestShardedChannelMatchesSequential(t *testing.T) {
	wantGot, wantStats := runShardReference(t)
	for _, tc := range []struct {
		exec  string
		procs int
	}{{"seq", 1}, {"par", 4}} {
		t.Run(tc.exec, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			set := sim.NewShardSet(2, shardLookahead)
			ownerOf := func(p geo.Point) (int, bool) {
				shard := 0
				if p.X >= 250 {
					shard = 1
				}
				return shard, p.X >= 0 && p.X <= 500 // all within one range of x=250
			}
			ch := NewChannelSharded(set, Default80211(), ownerOf)
			trs := make([]*Transceiver, len(shardTestPositions))
			got := make([][]any, len(shardTestPositions))
			for i, p := range shardTestPositions {
				i := i
				trs[i] = ch.Attach(mobility.Static(p), nil, func(f Frame, _ ID) {
					got[i] = append(got[i], f.Payload)
				})
				if !trs[i].Border() {
					t.Fatalf("node %d not border-marked", i)
				}
			}
			if want := int32(0); trs[1].owner != want || trs[0].owner != want {
				t.Fatalf("left nodes owned by shards %d/%d, want 0", trs[0].owner, trs[1].owner)
			}
			if trs[2].owner != 1 || trs[3].owner != 1 {
				t.Fatalf("right nodes owned by shards %d/%d, want 1", trs[2].owner, trs[3].owner)
			}
			for _, s := range shardTestSends {
				s := s
				k := set.Kernel(int(trs[s.node].owner))
				k.ScheduleFireTx(s.at, func() {
					if err := ch.Send(trs[s.node], Frame{Bytes: 512, Payload: s.pay}); err != nil {
						t.Errorf("send %s: %v", s.pay, err)
					}
				}, trs[s.node].Border())
			}
			if err := set.Run(20 * sim.Millisecond); err != nil {
				t.Fatalf("Run: %v", err)
			}
			ch.MergeShardStats()
			if !reflect.DeepEqual(got, wantGot) {
				t.Fatalf("sharded deliveries diverged:\ngot  %v\nwant %v", got, wantGot)
			}
			if ch.Stats != wantStats {
				t.Fatalf("sharded stats = %+v, want %+v", ch.Stats, wantStats)
			}
		})
	}
}

// TestShardedChannelRejectsMobile: sharding requires static placements.
func TestShardedChannelRejectsMobile(t *testing.T) {
	set := sim.NewShardSet(2, shardLookahead)
	ch := NewChannelSharded(set, Default80211(), func(geo.Point) (int, bool) { return 0, false })
	defer func() {
		if recover() == nil {
			t.Fatal("attaching a mobile transceiver to a sharded channel did not panic")
		}
	}()
	ch.Attach(&mobility.Waypoint{}, nil, nil)
}
