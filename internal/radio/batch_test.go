package radio

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// reception is one resolved arrival as the receiver's shard saw it.
type reception struct {
	at       sim.Time
	to, from ID
	collided bool
}

// logReceptions wraps every chanShard's batch callback so each resolved
// arrival is appended to the shard's log. An arrival counts as collided
// when resolving it bumped the shard's collision counter.
func logReceptions(c *Channel) [][]reception {
	logs := make([][]reception, len(c.shards))
	for i, sc := range c.shards {
		i, sc, finish := i, sc, sc.finishFn
		sc.finishFn = func(x any) {
			arr := x.(*arrival)
			to, from, before := arr.to.id, arr.from, sc.stats.FramesCollided
			finish(x)
			logs[i] = append(logs[i], reception{sc.k.Now(), to, from, sc.stats.FramesCollided > before})
		}
	}
	return logs
}

// TestShardRegistrationLandsInsideBatch: a cross-shard registration whose
// message timestamp falls strictly between the first and the last arrival
// of a border node's reception batch. Node a (x = 100) sends first; its
// batch on shard 0 resolves at r1 (10 m), then at r (149 m). Node b
// (x = 260, shard 1) starts sending 300 ns after a's frame ends, so its
// registrations land on shard 0 after a's arrival at r1 and before the
// one at r; b is 11 m from r, so its frame overlaps a's there and both
// collide. The merged reception log must equal the one-kernel log at one
// and two executor slots.
func TestShardRegistrationLandsInsideBatch(t *testing.T) {
	positions := []geo.Point{{X: 100, Y: 100}, {X: 110, Y: 100}, {X: 249, Y: 100}, {X: 260, Y: 100}}
	const a, r1, r, b = 0, 1, 2, 3
	const bytes = 512
	tA := 1 * sim.Millisecond
	play := func(ch *Channel, run func() error) []reception {
		t.Helper()
		logs := logReceptions(ch)
		trs := make([]*Transceiver, len(positions))
		for i, p := range positions {
			trs[i] = ch.Attach(mobility.Static(p), nil, nil)
		}
		tB := tA + ch.TxDuration(bytes) + 300e-9
		for _, s := range []struct {
			tr *Transceiver
			at sim.Time
		}{{trs[a], tA}, {trs[b], tB}} {
			s := s
			ch.kernelFor(s.tr).ScheduleFireTx(s.at, func() {
				if err := ch.Send(s.tr, Frame{Bytes: bytes, Payload: fmt.Sprint(s.tr.id)}); err != nil {
					t.Errorf("send from %d: %v", s.tr.id, err)
				}
			}, s.tr.Border())
		}
		if err := run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		var all []reception
		for _, l := range logs {
			all = append(all, l...)
		}
		slices.SortStableFunc(all, func(x, y reception) int {
			if c := cmp.Compare(x.at, y.at); c != 0 {
				return c
			}
			return cmp.Compare(x.to, y.to)
		})
		// The geometry: b's send instant is strictly inside a's batch on
		// shard 0, and the two frames collide at r.
		if first, last := logs[0][0], arrivalAt(t, all, r, a); !(first.from == a && first.to == r1 && first.at < tB && tB < last.at) {
			t.Fatalf("b sends at %v, not strictly between a's first arrival %+v and its last %+v", tB, first, last)
		}
		if got := arrivalAt(t, all, r, b); !got.collided || !arrivalAt(t, all, r, a).collided {
			t.Fatalf("frames from a and b did not collide at r: %+v", all)
		}
		return all
	}

	k := sim.NewKernel()
	want := play(NewChannel(k, Default80211()), k.RunAll)
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			set := sim.NewShardSet(2, shardLookahead)
			ownerOf := func(p geo.Point) (int, bool) {
				if p.X >= 250 {
					return 1, true
				}
				return 0, true
			}
			ch := NewChannelSharded(set, Default80211(), ownerOf)
			got := play(ch, func() error { return set.Run(20*sim.Millisecond, slots) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sharded reception log differs from one kernel's:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// arrivalAt returns the reception of sender from's frame at receiver to.
func arrivalAt(t *testing.T, log []reception, to, from ID) reception {
	t.Helper()
	for _, x := range log {
		if x.to == to && x.from == from {
			return x
		}
	}
	t.Fatalf("no reception of %d's frame at %d in %+v", from, to, log)
	return reception{}
}

// TestResolvedBatchReleasesArrivals is the radio's GC-retention check, in
// the style of sim's TestDrainedQueueReleasesReferences: once a reception
// batch has resolved, neither it nor the kernel's batch free list may pin
// the arrivals it carried, their frames or the frames' payloads. The
// arrivals come from the shard's free list, seeded here with structs the
// test can watch; after the run that list is dropped, and every payload and
// every arrival must be collectible.
func TestResolvedBatchReleasesArrivals(t *testing.T) {
	const nodes, sends = 16, 8
	k := sim.NewKernel()
	ch := NewChannel(k, Default80211())
	sc := ch.shards[0]
	collected := make(chan string, 2*nodes*sends)
	arrivals := (nodes - 1) * sends
	for i := 0; i < arrivals; i++ {
		arr := &arrival{}
		runtime.SetFinalizer(arr, func(*arrival) { collected <- "arrival" })
		sc.arrPool = append(sc.arrPool, arr)
	}
	trs := make([]*Transceiver, nodes)
	for i := range trs {
		trs[i] = ch.Attach(mobility.Static(geo.Point{X: float64(10 * i), Y: 0}), nil, nil)
	}
	for s := 0; s < sends; s++ {
		payload := &[64]byte{byte(s)}
		runtime.SetFinalizer(payload, func(*[64]byte) { collected <- "payload" })
		tr := trs[s]
		k.ScheduleFire(sim.Duration(s)*10*sim.Millisecond, func() {
			if err := ch.Send(tr, Frame{Bytes: 100, Payload: payload}); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := ch.Stats.FramesDelivered; got != uint64(arrivals) {
		t.Fatalf("delivered %d frames, want %d", got, arrivals)
	}
	sc.arrPool = nil
	count := map[string]int{}
	deadline := time.Now().Add(10 * time.Second)
	for (count["payload"] < sends || count["arrival"] < arrivals) && time.Now().Before(deadline) {
		runtime.GC()
		for drained := false; !drained; {
			select {
			case what := <-collected:
				count[what]++
			default:
				drained = true
			}
		}
	}
	if count["payload"] < sends || count["arrival"] < arrivals {
		t.Fatalf("collected %d/%d payloads and %d/%d arrivals: a resolved batch still references them",
			count["payload"], sends, count["arrival"], arrivals)
	}
	runtime.KeepAlive(k)
}

// TestArrivalPoolIsBounded: a burst of simultaneous transmissions leaves
// more arrivals in flight than the shard's free list keeps, and the list
// stops at maxArrivalPool so the burst does not pin them for the rest of
// the run.
func TestArrivalPoolIsBounded(t *testing.T) {
	const nodes = 160 // 160·159 arrivals in flight at once
	if nodes*(nodes-1) <= maxArrivalPool {
		t.Fatal("the burst is too small to reach the cap")
	}
	k := sim.NewKernel()
	ch := NewChannel(k, Default80211())
	trs := make([]*Transceiver, nodes)
	for i := range trs {
		trs[i] = ch.Attach(mobility.Static(geo.Point{X: float64(i%16) * 10, Y: float64(i/16) * 10}), nil, nil)
	}
	k.ScheduleFire(sim.Millisecond, func() {
		for _, tr := range trs {
			if err := ch.Send(tr, Frame{Bytes: 100}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := ch.Stats.FramesCollided; got != nodes*(nodes-1) {
		t.Fatalf("%d arrivals collided, want all %d", got, nodes*(nodes-1))
	}
	if got := len(ch.shards[0].arrPool); got != maxArrivalPool {
		t.Fatalf("free list holds %d arrivals after the burst, want the cap %d", got, maxArrivalPool)
	}
}
