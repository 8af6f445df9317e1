package radio

import (
	"reflect"
	"runtime"
	"testing"

	"innercircle/internal/energy"
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

// shardRun is everything the send schedule leaves observable: per-node
// received payloads, the channel totals and per-node receive airtime.
type shardRun struct {
	got   [][]any
	stats Stats
	rx    []sim.Duration
}

// playShardSchedule attaches shardTestPositions to ch, takes node down out
// of service (none if negative), issues shardTestSends from each sender's
// home kernel and drives the channel with run.
func playShardSchedule(t *testing.T, ch *Channel, down int, run func() error) shardRun {
	t.Helper()
	n := len(shardTestPositions)
	trs := make([]*Transceiver, n)
	meters := make([]*energy.Meter, n)
	out := shardRun{got: make([][]any, n), rx: make([]sim.Duration, n)}
	for i, p := range shardTestPositions {
		i := i
		meters[i] = energy.NewMeter(energy.NS2Default())
		trs[i] = ch.Attach(mobility.Static(p), meters[i], func(f Frame, _ ID) {
			out.got[i] = append(out.got[i], f.Payload)
		})
		if ch.Sharded() {
			if !trs[i].Border() {
				t.Fatalf("node %d not border-marked", i)
			}
			if want := int32(i / 2); trs[i].owner != want {
				t.Fatalf("node %d owned by shard %d, want %d", i, trs[i].owner, want)
			}
		}
	}
	if down >= 0 {
		trs[down].SetDown(true)
	}
	for _, s := range shardTestSends {
		s := s
		tr := trs[s.node]
		ch.kernelFor(tr).ScheduleFireTx(s.at, func() {
			if err := ch.Send(tr, Frame{Bytes: 512, Payload: s.pay}); err != nil {
				t.Errorf("send %s: %v", s.pay, err)
			}
		}, tr.Border())
	}
	if err := run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	ch.MergeShardStats()
	out.stats = ch.Stats
	for i, m := range meters {
		out.rx[i] = m.RxTime()
	}
	return out
}

// playSingleKernel plays the schedule on a NewChannel channel — the
// one-chanShard case — with the receiver enumeration pinned.
func playSingleKernel(t *testing.T, indexOn bool, down int) shardRun {
	t.Helper()
	k := sim.NewKernel()
	ch := NewChannel(k, Default80211())
	ch.SetIndexEnabled(indexOn)
	return playShardSchedule(t, ch, down, k.RunAll)
}

// TestShardedChannelMatchesSequential: the same send schedule must deliver
// the same payloads to the same nodes, charge the same receive airtime and
// produce the same channel totals as the full-scan reference on one
// chanShard with the index on and on a two-shard channel at both slot
// counts: both shards on the caller's goroutine at one P (seq), and one
// slot per shard at four (par). The -down arms take node 2 out of service:
// it sits across the stripe boundary from senders 0 and 1, so only the
// posted registration's own down check keeps it from colliding, receiving
// or being charged.
func TestShardedChannelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int // GOMAXPROCS; 0: one chanShard, index pinned on
		slots int
		down  int
	}{
		{"one-shard", 0, 0, -1}, {"seq", 1, 1, -1}, {"par", 4, 2, -1},
		{"seq-down", 1, 1, 2}, {"par-down", 4, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := playSingleKernel(t, false, tc.down)
			if want.stats.FramesDelivered == 0 || want.stats.FramesCollided == 0 {
				t.Fatalf("reference run is vacuous: %+v", want.stats)
			}
			var got shardRun
			if tc.procs == 0 {
				got = playSingleKernel(t, true, tc.down)
			} else {
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
				got = playShardSchedule(t, ch, tc.down, func() error { return set.Run(20*sim.Millisecond, tc.slots) })
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("diverged from the full-scan reference:\ngot  %+v\nwant %+v", got, want)
			}
			if tc.down >= 0 && (len(got.got[tc.down]) != 0 || got.rx[tc.down] != 0) {
				t.Fatalf("down node %d received %v and was charged %v of rx airtime", tc.down, got.got[tc.down], got.rx[tc.down])
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
