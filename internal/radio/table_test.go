package radio

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// The receiver-table tests play one script on a seeded 400-node static
// field (400 m square, 40 m range, about twelve neighbors each):
//
//	round 1   with every seventh node down, the others transmit once each,
//	          100 µs apart with 2 ms of airtime, so transmissions overlap and
//	          collide; each sender's first Send builds its table
//	round 2   all nodes up: the tables built in round 1 must hold the nodes
//	          that were down then, which now build their own
//	round 3   those nodes down again: nothing is rebuilt, and nothing is
//	          delivered to or registered at a down node
//	          — they come back up; a late static node attaches mid-field —
//	round 4   all 401 transmit: every table is stale and rebuilds once
//	          — a fast mobile node attaches —
//	round 5   all 402 transmit: tables are no longer consulted
//
// and check it three ways: at every Send against a brute-force InRange scan
// (single kernel, where registration is synchronous), against a channel
// that never builds a table (a mobile transceiver parked out of everyone's
// range is attached first), and across enumerations and shard counts. A
// sharded channel takes no mobile node, and its set can be Run a second
// time — which attaching between rounds needs — only by the sequential
// executor, so those plays stop after round 4 and round 3.
const (
	fieldNodes   = 400
	fieldEdge    = 400.0 // staticField(fieldNodes)'s square
	fieldGap     = 100 * sim.Microsecond
	fieldRound   = 60 * sim.Millisecond
	fieldDownMod = 7
)

var fieldParams = Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8}

// fieldOpts selects one way of playing the script.
type fieldOpts struct {
	index  string // "adaptive", "on" or "off"
	ghost  bool   // attach an out-of-range mobile first: no table is ever built
	shards int    // 0: NewChannel; otherwise NewChannelSharded on that many stripes
	rounds int    // 3, 4 or 5: how far into the script to play
}

// fieldRun is what a play leaves observable, keyed by node name so runs
// whose transceiver IDs differ (the ghost shifts them by one) compare equal.
type fieldRun struct {
	recv   map[string][]string     // per node: "time from payload" of every delivery
	rx     map[string]sim.Duration // per node: receive airtime charged
	stats  Stats
	builds [][]uint64 // per checkpoint (after rounds 3, 4, 5), per shard
	owned  [][]uint64 // per checkpoint, per shard: transmitters attached
}

type fieldNode struct {
	name  string
	tr    *Transceiver
	meter *energy.Meter
	recv  []string
}

// fieldStripe maps x to one of n equal stripes; with n ≤ 4 each is at least
// two ranges wide.
func fieldStripe(n int) func(geo.Point) (int, bool) {
	w := fieldEdge / float64(n)
	return func(p geo.Point) (int, bool) {
		s := min(int(p.X/w), n-1)
		left, right := float64(s)*w, float64(s+1)*w
		border := (s > 0 && p.X-left <= fieldParams.Range) || (s < n-1 && right-p.X <= fieldParams.Range)
		return s, border
	}
}

func playField(t *testing.T, o fieldOpts) fieldRun {
	t.Helper()
	var (
		ch  *Channel
		run func(until sim.Time) error
	)
	if o.shards == 0 {
		k := sim.NewKernel()
		ch = NewChannel(k, fieldParams)
		run = k.Run
	} else {
		set := sim.NewShardSet(o.shards, shardLookahead)
		ch = NewChannelSharded(set, fieldParams, fieldStripe(o.shards))
		run = set.Run
	}
	switch o.index {
	case "on":
		ch.SetIndexEnabled(true)
	case "off":
		ch.SetIndexEnabled(false)
	}

	var nodes []*fieldNode
	attach := func(name string, m mobility.Model) *fieldNode {
		n := &fieldNode{name: name, meter: energy.NewMeter(energy.NS2Default())}
		n.tr = ch.Attach(m, n.meter, func(f Frame, from ID) {
			n.recv = append(n.recv, fmt.Sprintf("%v %s %v", ch.kernelFor(n.tr).Now(), nodes[from].name, f.Payload))
		})
		nodes = append(nodes, n)
		return n
	}
	if o.ghost {
		attach("ghost", &linear{start: geo.Point{X: 1e6, Y: 1e6}})
	}
	var senders []*fieldNode
	for i, m := range staticField(fieldNodes) {
		senders = append(senders, attach(fmt.Sprintf("n%d", i), m))
	}

	// oracle checks, inside the sending event, that exactly the up
	// transceivers in range of an up sender hold an arrival of this frame.
	oracle := func(from *fieldNode, payload string) {
		for _, n := range nodes {
			want := n != from && !from.tr.down && !n.tr.down && ch.InRange(from.tr, n.tr)
			got := false
			for _, a := range n.tr.arrivals {
				got = got || a.frame.Payload == payload
			}
			if got != want {
				t.Errorf("%+v: %s at %s: registered=%v, brute-force scan says %v", o, payload, n.name, got, want)
			}
		}
	}
	order := sim.NewRNG(5)
	round := func(r int, start sim.Time) {
		for j, i := range order.Perm(len(senders)) {
			n := senders[i]
			payload := fmt.Sprintf("r%d-%s", r, n.name)
			k := ch.kernelFor(n.tr)
			k.ScheduleFireTx(start+sim.Duration(j+1)*fieldGap-k.Now(), func() {
				if err := ch.Send(n.tr, Frame{Bytes: 500, Payload: payload}); err != nil {
					t.Errorf("send %s: %v", payload, err)
				}
				if o.shards == 0 {
					oracle(n, payload)
				}
			}, n.tr.Border())
		}
	}
	setDown := func(at sim.Time, down bool) {
		for i := fieldDownMod - 1; i < fieldNodes; i += fieldDownMod {
			n := senders[i]
			k := ch.kernelFor(n.tr)
			k.MustSchedule(at+sim.Duration(i)*fieldGap/1000-k.Now(), func() { n.tr.SetDown(down) })
		}
	}
	out := fieldRun{recv: map[string][]string{}, rx: map[string]sim.Duration{}}
	checkpoint := func(until sim.Time) {
		if err := run(until); err != nil {
			t.Fatalf("%+v: run to %v: %v", o, until, err)
		}
		builds, owned := make([]uint64, len(ch.shards)), make([]uint64, len(ch.shards))
		for i, sc := range ch.shards {
			builds[i] = sc.tableBuilds
		}
		for _, n := range senders {
			owned[n.tr.owner]++
		}
		out.builds, out.owned = append(out.builds, builds), append(out.owned, owned)
	}

	setDown(0, true)
	round(1, 0)
	setDown(fieldRound-5*sim.Millisecond, false)
	round(2, fieldRound)
	setDown(2*fieldRound-5*sim.Millisecond, true)
	round(3, 2*fieldRound)
	setDown(3*fieldRound-5*sim.Millisecond, false)
	checkpoint(3 * fieldRound)

	if o.rounds >= 4 {
		senders = append(senders, attach("late", mobility.Static(geo.Point{X: fieldEdge / 2, Y: fieldEdge / 2})))
		round(4, 3*fieldRound)
		checkpoint(4 * fieldRound)
	}
	if o.rounds >= 5 {
		// Crosses the field from the left edge during round 5.
		cross := &linear{start: geo.Point{X: -float64(4*fieldRound) * 8000, Y: fieldEdge / 2}, vx: 8000}
		senders = append(senders, attach("mobile", cross))
		round(5, 4*fieldRound)
		checkpoint(5 * fieldRound)
	}

	ch.MergeShardStats()
	out.stats = ch.Stats
	for _, n := range nodes {
		out.recv[n.name], out.rx[n.name] = n.recv, n.meter.RxTime()
	}
	return out
}

// assertSameField compares everything but the build counters.
func assertSameField(t *testing.T, what string, got, want fieldRun) {
	t.Helper()
	if got.stats != want.stats {
		t.Errorf("%s: stats %+v, want %+v", what, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.rx, want.rx) {
		t.Errorf("%s: receive airtime differs", what)
	}
	for name, w := range want.recv {
		if g := got.recv[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: node %s received %d frames, want %d; first difference: %s", what, name, len(g), len(w), firstDiff(g, w))
			return
		}
	}
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("[%d] %q vs %q", i, a[i], b[i])
		}
	}
	return "one is a prefix of the other"
}

// TestReceiverTablesMatchBruteForce: on one kernel, under every choice of
// enumeration, each Send registers at exactly the brute-force receiver set
// (checked inside playField), tables are built once per transmitter and
// once more after the late Attach — never for a SetDown toggle, never once
// something mobile is attached — and the whole run is frame for frame that
// of a channel that never built a table.
func TestReceiverTablesMatchBruteForce(t *testing.T) {
	never := playField(t, fieldOpts{index: "off", ghost: true, rounds: 5})
	for _, b := range never.builds {
		if b[0] != 0 {
			t.Fatalf("reference channel with a mobile transceiver built %d receiver tables", b[0])
		}
	}
	if never.stats.FramesDelivered == 0 || never.stats.FramesCollided == 0 {
		t.Fatalf("reference run is vacuous: %+v", never.stats)
	}
	if len(never.recv["late"]) == 0 || len(never.recv["mobile"]) == 0 {
		t.Fatal("late or mobile node heard nothing; the attach phases check nothing")
	}
	delete(never.recv, "ghost")
	delete(never.rx, "ghost")
	for _, index := range []string{"adaptive", "on", "off"} {
		got := playField(t, fieldOpts{index: index, rounds: 5})
		assertSameField(t, "index "+index, got, never)
		want := [][]uint64{{fieldNodes}, {2*fieldNodes + 1}, {2*fieldNodes + 1}}
		if !reflect.DeepEqual(got.builds, want) {
			t.Errorf("index %s: table builds after rounds 3, 4, 5 = %v, want %v", index, got.builds, want)
		}
	}
}

// TestReceiverTablesShardedField plays the static part of the script on
// four stripes under both shard executors (ShardSet.Run picks by
// GOMAXPROCS): every node must receive what it receives on one kernel with
// the full scan, and each shard must build one table per transmitter it
// owns plus, where the late Attach is played, one rebuild each. Tables are
// private to the sender's kernel; CI runs this under -race.
func TestReceiverTablesShardedField(t *testing.T) {
	for _, tc := range []struct{ procs, rounds int }{{1, 4}, {4, 3}} {
		t.Run(fmt.Sprintf("procs=%d", tc.procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			want := playField(t, fieldOpts{index: "off", rounds: tc.rounds})
			got := playField(t, fieldOpts{shards: 4, rounds: tc.rounds})
			assertSameField(t, "4 shards", got, want)
			for s, owned := range got.owned[0] {
				if owned == 0 {
					t.Fatalf("shard %d owns no transmitter", s)
				}
				if got.builds[0][s] != owned {
					t.Errorf("shard %d built %d tables for %d transmitters", s, got.builds[0][s], owned)
				}
				if tc.rounds >= 4 && got.builds[1][s] != owned+got.owned[1][s] {
					t.Errorf("shard %d: %d builds after the late attach, want %d", s, got.builds[1][s], owned+got.owned[1][s])
				}
			}
		})
	}
}
