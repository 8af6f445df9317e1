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
//	          — a fast mobile node with no speed bound attaches —
//	round 5   all 402 transmit: the static ones rebuild once more, each
//	          table now holding the mobile node as an entry measured per
//	          send; its own table is everybody
//
// and check it three ways: at every Send against a brute-force InRange scan
// (single kernel, where registration is synchronous), against the pinned
// reference, whose tables hold every transceiver (with a mobile one parked
// out of everyone's range attached first), and across shard counts. A
// sharded channel takes no mobile node, so those plays stop after round 4;
// attaching between rounds has them Run their shard set a second time.
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
	pinned bool // SetIndexEnabled(false): every table holds everybody
	ghost  bool // attach an out-of-range mobile first
	shards int  // 0: NewChannel; otherwise NewChannelSharded on that many stripes
	slots  int  // executor slots a sharded channel's set runs on
	rounds int  // 4 or 5: how far into the script to play
}

// fieldRun is what a play leaves observable, keyed by node name so runs
// whose transceiver IDs differ (the ghost shifts them by one) compare equal.
type fieldRun struct {
	recv   map[string][]string     // per node: "time from payload" of every delivery
	rx     map[string]sim.Duration // per node: receive airtime charged
	stats  Stats
	builds [][]uint64 // per checkpoint (after rounds 3, 4, 5), per shard
	widest int        // the longest receiver table of a static node at the end
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
		run = func(until sim.Time) error { return set.Run(until, o.slots) }
	}
	ch.SetIndexEnabled(!o.pinned)

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
			k.ScheduleFire(at+sim.Duration(i)*fieldGap/1000-k.Now(), func() { n.tr.SetDown(down) })
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

	senders = append(senders, attach("late", mobility.Static(geo.Point{X: fieldEdge / 2, Y: fieldEdge / 2})))
	round(4, 3*fieldRound)
	checkpoint(4 * fieldRound)
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
		if n.tr.static {
			out.widest = max(out.widest, len(n.tr.rx))
		}
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

// TestReceiverTablesMatchBruteForce: on one kernel each Send registers at
// exactly the brute-force receiver set. On the static script (checked inside
// playField) tables are built once per transmitter and once more after each
// late Attach — never for a SetDown toggle — the unbounded mobile node's
// holds everybody, and the whole run is frame for frame that of the pinned
// reference, where every sender measures everybody. The moving fields are
// checked by diffField.
func TestReceiverTablesMatchBruteForce(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		never := playField(t, fieldOpts{pinned: true, ghost: true, rounds: 5})
		if never.widest != fieldNodes+2 {
			t.Fatalf("pinned reference: a sender measures %d of the %d other transceivers", never.widest, fieldNodes+2)
		}
		if never.stats.FramesDelivered == 0 || never.stats.FramesCollided == 0 {
			t.Fatalf("reference run is vacuous: %+v", never.stats)
		}
		if len(never.recv["late"]) == 0 || len(never.recv["mobile"]) == 0 {
			t.Fatal("late or mobile node heard nothing; the attach phases check nothing")
		}
		delete(never.recv, "ghost")
		delete(never.rx, "ghost")
		got := playField(t, fieldOpts{rounds: 5})
		if got.widest > fieldNodes/8 {
			t.Fatalf("a table of %d on a field of %d with about twelve neighbours each", got.widest, fieldNodes)
		}
		assertSameField(t, "tables", got, never)
		want := [][]uint64{{fieldNodes}, {2*fieldNodes + 1}, {3*fieldNodes + 3}}
		if !reflect.DeepEqual(got.builds, want) {
			t.Errorf("table builds after rounds 3, 4, 5 = %v, want %v", got.builds, want)
		}
	})
	t.Run("waypoint", func(t *testing.T) { playMoving(t, 0) })
	t.Run("mixed", func(t *testing.T) { playMoving(t, 24) })
}

// diffField is a single-kernel channel whose every Send is checked against
// a brute-force scan. The scan reads twins: each model built a second time
// from the same seed, so the oracle shares neither the channel's position
// cache nor a model's leg state with the code under test.
type diffField struct {
	t     testing.TB
	k     *sim.Kernel
	ch    *Channel
	trs   []*Transceiver
	twins []mobility.Model

	sends, reached, delivered int
}

func newDiffField(t testing.TB, p Params) *diffField {
	k := sim.NewKernel()
	return &diffField{t: t, k: k, ch: NewChannel(k, p)}
}

func (f *diffField) attach(build func() mobility.Model) {
	f.trs = append(f.trs, f.ch.Attach(build(), nil, func(Frame, ID) { f.delivered++ }))
	f.twins = append(f.twins, build())
}

// send transmits from node i now and requires the arrivals Send registered
// to be exactly the up transceivers the scan finds in range of an up, idle
// sender, each starting after the scan's propagation delay to the bit.
func (f *diffField) send(i int) {
	f.t.Helper()
	now, tr := f.k.Now(), f.trs[i]
	f.sends++
	sends := !tr.down && tr.txUntil <= now
	if err := f.ch.Send(tr, Frame{Bytes: 64, Payload: f.sends}); (err == nil) != (sends || tr.down) {
		f.t.Fatalf("t=%v: send %d from %d: down=%v, busy until %v, err=%v", now, f.sends, i, tr.down, tr.txUntil, err)
	}
	src := f.twins[i].Pos(now)
	for j, r := range f.trs {
		dist := f.twins[j].Pos(now).Dist(src)
		want := j != i && sends && !r.down && dist <= f.ch.params.Range
		var got *arrival
		for _, a := range r.arrivals {
			if a.frame.Payload == f.sends {
				got = a
			}
		}
		switch {
		case (got != nil) != want:
			f.t.Fatalf("t=%v: send %d from %d: registered at %d = %v, brute-force scan says %v (distance %v)", now, f.sends, i, j, got != nil, want, dist)
		case want && got.start != now+sim.Duration(dist/f.ch.params.PropSpeed):
			f.t.Fatalf("t=%v: send %d from %d: arrival at %d starts %v, scan says %v", now, f.sends, i, j, got.start, now+sim.Duration(dist/f.ch.params.PropSpeed))
		case want:
			f.reached++
		}
	}
}

// jumper teleports between two points every period: a model with no speed
// bound, like sts_test.go's stepMove.
type jumper struct {
	a, b   geo.Point
	period sim.Duration
}

func (j *jumper) Pos(t sim.Time) geo.Point {
	if int64(t/j.period)%2 == 0 {
		return j.a
	}
	return j.b
}

func waypointAt(region geo.Rect, speed float64, start geo.Point, seed int64) func() mobility.Model {
	return func() mobility.Model {
		return mobility.NewWaypoint(mobility.WaypointConfig{Region: region, MinSpeed: speed / 2, MaxSpeed: speed}, start, sim.NewRNG(seed))
	}
}

// playMoving runs 40 s of traffic — 64 table lifetimes before the late
// mobile attach doubles the top speed, more after — over 40 nodes in a 400 m
// square at 100 m range: statics of them static, one waypoint of speed zero,
// one jumper, the rest waypoints of up to 20 m/s. Every node transmits about
// eight times a second; nodes go down and come back throughout; a static
// node attaches at 13 s and a 40 m/s waypoint at 26 s.
func playMoving(t *testing.T, statics int) {
	const (
		nodes = 40
		until = 40 * sim.Second
	)
	region, p := geo.Square(400), Params{Range: 100, Bitrate: 2e6, PropSpeed: 3e8}
	f := newDiffField(t, p)
	rng := sim.NewRNG(int64(77 + statics))
	for i, at := range mobility.UniformPlacement(region, nodes, rng) {
		at := at
		switch {
		case i < statics:
			f.attach(func() mobility.Model { return mobility.Static(at) })
		case i == nodes-2:
			f.attach(waypointAt(region, 0, at, int64(i)))
		case i == nodes-1:
			f.attach(func() mobility.Model {
				return &jumper{a: at, b: geo.Point{X: 400 - at.X, Y: 400 - at.Y}, period: 700 * sim.Millisecond}
			})
		default:
			f.attach(waypointAt(region, 20, at, int64(i)))
		}
	}
	horizon := f.ch.horizon()
	if lifetimes := float64(until / horizon); lifetimes < 50 {
		t.Fatalf("the run spans %.0f table lifetimes, want at least 50", lifetimes)
	}
	var tick func()
	tick = func() {
		switch i := rng.Intn(len(f.trs)); {
		case rng.Intn(40) == 0:
			f.trs[i].SetDown(!f.trs[i].down)
		default:
			f.send(i)
		}
		f.k.ScheduleFire(rng.Jitter(6*sim.Millisecond), tick)
	}
	f.k.ScheduleFire(0, tick)
	f.k.ScheduleFire(13*sim.Second, func() {
		f.attach(func() mobility.Model { return mobility.Static(region.Center()) })
	})
	f.k.ScheduleFire(26*sim.Second, func() { f.attach(waypointAt(region, 40, region.Center(), 99)) })
	if err := f.k.Run(until); err != nil {
		t.Fatal(err)
	}
	if f.ch.horizon() != horizon/2 {
		t.Fatalf("horizon %v after the 40 m/s attach, %v before: want half", f.ch.horizon(), horizon)
	}
	builds, senders := f.ch.shards[0].tableBuilds, uint64(len(f.trs)-1) // the jumper's table never expires
	if least := senders * uint64(until/horizon) / 2; builds < least || builds > uint64(f.sends)/2 {
		t.Fatalf("%d table builds for %d sends by %d senders over %.0f lifetimes: tables are not both expiring and being reused", builds, f.sends, senders, float64(until/horizon))
	}
	if f.reached == 0 || f.delivered == 0 || f.reached > f.sends*(len(f.trs)-1)/2 {
		t.Fatalf("%d sends reached %d receivers, %d delivered: the field is not one where range matters", f.sends, f.reached, f.delivered)
	}
}

// TestReceiverTablesShardedField plays the static part of the script on
// four stripes, on one executor slot at one P and on four at four P: every
// node must receive what it receives on one kernel with the full scan, and
// each shard must build one table per transmitter it owns plus, after the
// late Attach, one rebuild each. Tables are private to the sender's kernel;
// CI runs this under -race.
func TestReceiverTablesShardedField(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			want := playField(t, fieldOpts{pinned: true, rounds: 4})
			got := playField(t, fieldOpts{shards: 4, slots: procs, rounds: 4})
			assertSameField(t, "4 shards", got, want)
			for s, owned := range got.owned[0] {
				if owned == 0 {
					t.Fatalf("shard %d owns no transmitter", s)
				}
				if got.builds[0][s] != owned {
					t.Errorf("shard %d built %d tables for %d transmitters", s, got.builds[0][s], owned)
				}
				if got.builds[1][s] != owned+got.owned[1][s] {
					t.Errorf("shard %d: %d builds after the late attach, want %d", s, got.builds[1][s], owned+got.owned[1][s])
				}
			}
		})
	}
}

// A table script is a sequence of four-byte ops {kind, a, b, c} played on a
// diffField over a 300 m square at 100 m range; kind%8 selects
//
//	0     attach a static node at (a, b)
//	1     attach a waypoint at (a, b) with top speed 0, 5, 20, 80 or 320 m/s
//	2     attach a jumper between (a, b) and (c, a^b)
//	3, 4  transmit from node a
//	5     toggle node a down or up
//	6     advance the clock (1 + a) ms
//	7     advance the clock (1 + a) × 50 ms: past several table lifetimes
//
// with coordinates scaled from a byte to the square, node numbers taken
// modulo the population, and attaches beyond 32 nodes ignored.
func replayTableScript(t *testing.T, script []byte) {
	const edge, maxNodes = 300.0, 32
	region := geo.Square(edge)
	f := newDiffField(t, Params{Range: 100, Bitrate: 2e6, PropSpeed: 3e8})
	at := func(x, y byte) geo.Point { return geo.Point{X: float64(x) / 255 * edge, Y: float64(y) / 255 * edge} }
	for ; len(script) >= 4; script = script[4:] {
		kind, a, b, c := script[0]%8, script[1], script[2], script[3]
		n := len(f.trs)
		switch {
		case kind <= 2 && n == maxNodes, kind >= 3 && kind <= 5 && n == 0:
		case kind == 0:
			f.attach(func() mobility.Model { return mobility.Static(at(a, b)) })
		case kind == 1:
			f.attach(waypointAt(region, []float64{0, 5, 20, 80, 320}[c%5], at(a, b), int64(c)))
		case kind == 2:
			f.attach(func() mobility.Model {
				return &jumper{a: at(a, b), b: at(c, a^b), period: sim.Duration(1+c%16) * 50 * sim.Millisecond}
			})
		case kind <= 4:
			f.send(int(a) % n)
		case kind == 5:
			tr := f.trs[int(a)%n]
			tr.SetDown(!tr.down)
		default:
			dt := sim.Duration(1+int(a)) * sim.Millisecond
			if kind == 7 {
				dt *= 50
			}
			if err := f.k.Run(f.k.Now() + dt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// tableScript generates a seeded script of the given number of ops: a dozen
// attaches first, then mostly transmissions and short waits.
func tableScript(seed int64, ops int) []byte {
	rng := sim.NewRNG(seed)
	script := make([]byte, 0, 4*ops)
	for i := 0; i < ops; i++ {
		kind := byte(rng.Intn(3))
		if i >= 12 {
			kind = []byte{0, 1, 2, 5, 7, 7, 6, 6, 6, 6, 3, 3, 3, 3, 3, 3}[rng.Intn(16)]
		}
		script = append(script, kind, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return script
}

// FuzzReceiverTableDifferential replays encoded scripts of attaches, moves
// (the clock advancing under waypoints and jumpers), transmissions and down
// toggles, requiring of every Send what diffField.send requires. The seed
// corpus is 16 seeded 400-op scripts.
func FuzzReceiverTableDifferential(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(tableScript(seed, 400))
	}
	f.Fuzz(func(t *testing.T, script []byte) { replayTableScript(t, script) })
}
