package radio

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// Header kinds of the overhearing tests' traffic, shaped like the MAC's.
const (
	ohData uint8 = iota + 1
	ohAck
)

// ohSIFS is the turnaround before an ACK-shaped reply: at least
// shardLookahead, as a sharded channel requires of a tx-flagged event.
const ohSIFS = 10 * sim.Microsecond

// ohOpts selects one play of the overhearing script.
type ohOpts struct {
	addressed bool // Addressed transceivers; else promiscuous ones that drop what is not theirs
	movers    int  // waypoint movers attached after the static nodes (single kernel only)
	shards    int  // 0: NewChannel; otherwise NewChannelSharded on that many stripes
	slots     int  // executor slots of a sharded channel's set
}

// ohRun is what a play leaves observable. Logs are per node, so every entry
// is appended on the node's own kernel.
type ohRun struct {
	log     [][]string     // per node: deliveries, send errors, Busy samples
	rx      []sim.Duration // per node: receive airtime charged
	stats   Stats
	events  uint64 // kernel events, summed over shards
	pending uint64 // overheard arrivals still in some list that end after the run
}

// The overhearing script: 60 static nodes in a 400 m × 60 m strip at 40 m
// range (about twelve neighbours each), plus movers on a single kernel, and
// 700 sends at seeded random instants in 400 ms of 100–500 byte frames, so
// frames overlap and collide. A send is a unicast data frame to a random
// node (in range or not), a broadcast, or an unaddressed frame; a node that
// receives a unicast addressed to it answers with an ACK-shaped frame after
// ohSIFS. Node 7 is down for the middle third of the run. The run stops at
// 400 ms with frames still in the air.
const (
	ohStatic = 60
	ohSends  = 700
	ohUntil  = 400 * sim.Millisecond
	ohDown   = 7
)

func playOverhear(t *testing.T, o ohOpts) ohRun {
	t.Helper()
	var (
		ch     *Channel
		run    func() error
		events func() uint64
	)
	if o.shards == 0 {
		k := sim.NewKernel()
		ch = NewChannel(k, fieldParams)
		run = func() error { return k.Run(ohUntil) }
		events = k.Processed
	} else {
		set := sim.NewShardSet(o.shards, shardLookahead)
		w := fieldEdge / float64(o.shards)
		ch = NewChannelSharded(set, fieldParams, func(p geo.Point) (int, bool) {
			s := min(int(p.X/w), o.shards-1)
			left, right := float64(s)*w, float64(s+1)*w
			return s, (s > 0 && p.X-left <= fieldParams.Range) || (s < o.shards-1 && right-p.X <= fieldParams.Range)
		})
		run = func() error { return set.Run(ohUntil, o.slots) }
		events = func() (n uint64) {
			for _, u := range set.Utilization() {
				n += u.Events
			}
			return n
		}
	}

	rng := sim.NewRNG(11)
	n := ohStatic + o.movers
	out := ohRun{log: make([][]string, n), rx: make([]sim.Duration, n)}
	trs := make([]*Transceiver, n)
	meters := make([]*energy.Meter, n)
	send := func(i int, f Frame) {
		tr := trs[i]
		k := ch.kernelFor(tr)
		busy := make([]byte, 0, n)
		for _, r := range trs {
			if r.owner != tr.owner {
				continue
			}
			if ch.Busy(r) {
				busy = append(busy, 'B')
			} else {
				busy = append(busy, '-')
			}
		}
		entry := fmt.Sprintf("%v send %+v busy=%s", float64(k.Now()), f.Header, busy)
		if err := ch.Send(tr, f); err != nil {
			entry += " " + err.Error()
		}
		out.log[i] = append(out.log[i], entry)
	}
	for i := range trs {
		var m mobility.Model = mobility.Static(geo.Point{X: rng.Uniform(0, fieldEdge), Y: rng.Uniform(0, 60)})
		if i >= ohStatic {
			start := geo.Point{X: rng.Uniform(0, fieldEdge), Y: rng.Uniform(0, 60)}
			m = waypointAt(geo.Rect{MaxX: fieldEdge, MaxY: 60}, 200, start, int64(i))()
		}
		i := i
		meters[i] = energy.NewMeter(energy.NS2Default())
		trs[i] = ch.Attach(m, meters[i], func(f Frame, from ID) {
			h := f.Header
			if !o.addressed && h.Kind != 0 && h.Dst >= 0 && ID(h.Dst) != ID(i) {
				return // the reference drops what the MAC would
			}
			k := ch.kernelFor(trs[i])
			out.log[i] = append(out.log[i], fmt.Sprintf("%v recv from %d %+v %v", float64(k.Now()), from, h, f.Payload))
			if h.Kind == ohData && h.Dst == int32(i) {
				reply := Frame{Header: Header{Kind: ohAck, Src: int32(i), Dst: h.Src, Seq: h.Seq}, Bytes: 66}
				k.ScheduleFireTx(ohSIFS, func() { send(i, reply) }, trs[i].Border())
			}
		})
		if o.addressed {
			trs[i].Addressed()
		}
	}
	for j := 0; j < ohSends; j++ {
		i := rng.Intn(n)
		f := Frame{Header: Header{Kind: ohData, Src: int32(i), Seq: uint32(j)}, Bytes: 100 + rng.Intn(401), Payload: fmt.Sprint("p", j)}
		switch kind := rng.Intn(10); {
		case kind < 6:
			f.Header.Dst = int32(rng.Intn(n))
		case kind < 9:
			f.Header.Dst = Broadcast
		default:
			f.Header = Header{}
		}
		k := ch.kernelFor(trs[i])
		k.ScheduleFireTx(sim.Duration(rng.Uniform(0, float64(ohUntil))), func() { send(i, f) }, trs[i].Border())
	}
	down := trs[ohDown]
	k := ch.kernelFor(down)
	k.ScheduleFire(ohUntil/3, func() { down.SetDown(true) })
	k.ScheduleFire(2*ohUntil/3, func() { down.SetDown(false) })

	if err := run(); err != nil {
		t.Fatalf("%+v: run: %v", o, err)
	}
	ch.MergeShardStats()
	out.stats, out.events = ch.Stats, events()
	for i, tr := range trs {
		out.rx[i] = meters[i].RxTime()
		for _, a := range tr.arrivals {
			if a.overheard && a.end > ohUntil {
				out.pending++
			}
		}
	}
	return out
}

// assertOverhearingInvisible compares an addressed play with its
// promiscuous reference: every delivery, send result and Busy sample, every
// meter's receive airtime and the frames sent must be equal, the addressed
// run delivers exactly what it logs, and it runs one kernel event fewer per
// overheard arrival that ended within the run, each of which was an event
// of the reference.
func assertOverhearingInvisible(t *testing.T, got, want ohRun) {
	t.Helper()
	for i := range want.log {
		if !reflect.DeepEqual(got.log[i], want.log[i]) {
			t.Fatalf("node %d: log differs from the promiscuous reference; first difference: %s", i, firstDiff(got.log[i], want.log[i]))
		}
	}
	if !reflect.DeepEqual(got.rx, want.rx) {
		t.Errorf("receive airtime differs from the promiscuous reference:\ngot  %v\nwant %v", got.rx, want.rx)
	}
	if got.stats.FramesSent != want.stats.FramesSent {
		t.Errorf("sent %d frames, the reference %d", got.stats.FramesSent, want.stats.FramesSent)
	}
	var recvd uint64
	for _, l := range got.log {
		for _, e := range l {
			if strings.Contains(e, " recv ") {
				recvd++
			}
		}
	}
	if got.stats.FramesDelivered != recvd {
		t.Errorf("FramesDelivered = %d, but %d frames reached a callback", got.stats.FramesDelivered, recvd)
	}
	if want.stats.FramesOverheard != 0 || want.pending != 0 {
		t.Errorf("promiscuous reference overheard %d arrivals", want.stats.FramesOverheard)
	}
	// The script must exercise what it checks.
	if got.stats.FramesOverheard == 0 || got.pending == 0 || want.stats.FramesCollided == 0 || recvd == 0 {
		t.Fatalf("degenerate script: %+v, %d overheard arrivals pending at the end, %d received", got.stats, got.pending, recvd)
	}
	if ended := got.stats.FramesOverheard - got.pending; want.events-got.events != ended {
		t.Errorf("ran %d kernel events, the reference %d: a difference of %d, want the %d overheard arrivals that ended in the run",
			got.events, want.events, want.events-got.events, ended)
	}
}

// TestOverhearingMatchesPromiscuous: on one kernel with waypoint movers,
// addressed transceivers see exactly what promiscuous ones that drop frames
// addressed elsewhere see — deliveries, collisions, carrier sense and
// receive energy — with no event for an overheard arrival.
func TestOverhearingMatchesPromiscuous(t *testing.T) {
	want := playOverhear(t, ohOpts{movers: 6})
	got := playOverhear(t, ohOpts{movers: 6, addressed: true})
	assertOverhearingInvisible(t, got, want)
}

// TestOverhearingMatchesPromiscuousShard: the same on a two-stripe sharded
// channel, where overheard frames cross the stripe boundary as posted
// registrations, at one and two executor slots.
func TestOverhearingMatchesPromiscuousShard(t *testing.T) {
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			want := playOverhear(t, ohOpts{shards: 2, slots: slots})
			got := playOverhear(t, ohOpts{shards: 2, slots: slots, addressed: true})
			assertOverhearingInvisible(t, got, want)
		})
	}
}

// TestStatsCountOverheard: a unicast among three transceivers in range of
// one another is delivered once and overheard once; overheard arrivals are
// neither delivered nor collided.
func TestStatsCountOverheard(t *testing.T) {
	k := sim.NewKernel()
	ch, trs, got := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 100}, {X: 200}})
	for _, tr := range trs {
		tr.Addressed()
	}
	if err := ch.Send(trs[0], Frame{Header: Header{Kind: ohData, Src: 0, Dst: 1}, Bytes: 512, Payload: "to1"}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := Stats{FramesSent: 1, FramesDelivered: 1, FramesOverheard: 1}
	if ch.Stats != want {
		t.Fatalf("stats %+v, want %+v", ch.Stats, want)
	}
	if len(got[1]) != 1 || len(got[2]) != 0 {
		t.Fatalf("addressee got %v and overhearer %v, want [to1] and nothing", got[1], got[2])
	}
	if k.Processed() != 1 {
		t.Fatalf("ran %d kernel events, want the addressee's one", k.Processed())
	}
}

// TestOverheardArrivalReleasesPayload extends TestResolvedBatchReleasesArrivals
// to overhearing: once its frame has ended, an overheard unicast's payload
// is collectible even though the overhearer never receives again and so
// still lists the ended arrival.
func TestOverheardArrivalReleasesPayload(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, Default80211())
	trs := make([]*Transceiver, 3)
	for i := range trs {
		trs[i] = ch.Attach(mobility.Static(geo.Point{X: float64(100 * i)}), nil, nil)
		trs[i].Addressed()
	}
	collected := make(chan struct{}, 1)
	payload := &[64]byte{1}
	runtime.SetFinalizer(payload, func(*[64]byte) { collected <- struct{}{} })
	if err := ch.Send(trs[0], Frame{Header: Header{Kind: ohData, Src: 0, Dst: 1}, Bytes: 512, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	payload = nil
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(trs[2].arrivals) != 1 || !trs[2].arrivals[0].overheard {
		t.Fatalf("overhearer lists %d arrivals, want its one ended overheard arrival", len(trs[2].arrivals))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(ch)
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the overheard unicast's payload was never collected: an overheard arrival still references it")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverheardListsStayBounded: over a long contention run of unicasts in
// one collision domain, where every node overhears almost every frame, no
// receiver's in-flight list ever holds more than two arrivals per other
// transceiver (one on the air, and one that ended at most a propagation
// delay ago and awaits its resolution): ended overheard arrivals are
// dropped as the list is walked, not kept.
func TestOverheardListsStayBounded(t *testing.T) {
	const nodes, sends = 12, 20000
	k := sim.NewKernel()
	ch := NewChannel(k, Default80211())
	trs := make([]*Transceiver, nodes)
	for i := range trs {
		trs[i] = ch.Attach(mobility.Static(geo.Point{X: float64(10 * i)}), nil, nil)
		trs[i].Addressed()
	}
	rng := sim.NewRNG(3)
	widest := 0
	for s := 0; s < sends; s++ {
		i := rng.Intn(nodes)
		f := Frame{Header: Header{Kind: ohData, Src: int32(i), Dst: int32((i + 1 + rng.Intn(nodes-1)) % nodes)}, Bytes: 200}
		k.ScheduleFire(sim.Duration(s)*200*sim.Microsecond, func() {
			_ = ch.Send(trs[i], f) // ErrTxBusy is part of contention
			for _, tr := range trs {
				widest = max(widest, len(tr.arrivals))
			}
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ch.Stats.FramesOverheard < sends {
		t.Fatalf("only %d arrivals overheard in %d sends", ch.Stats.FramesOverheard, sends)
	}
	if widest > 2*(nodes-1) {
		t.Fatalf("an in-flight list grew to %d arrivals among %d transceivers", widest, nodes)
	}
}
