package radio

import (
	"errors"
	"math"
	"testing"

	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// testNet builds a channel with transceivers at fixed positions; received
// payloads are appended per node.
func testNet(k *sim.Kernel, params Params, positions []geo.Point) (*Channel, []*Transceiver, [][]any) {
	ch := NewChannel(k, params)
	trs := make([]*Transceiver, len(positions))
	got := make([][]any, len(positions))
	for i, p := range positions {
		i := i
		trs[i] = ch.Attach(mobility.Static(p), nil, func(f Frame, _ ID) {
			got[i] = append(got[i], f.Payload)
		})
	}
	return ch, trs, got
}

func TestDeliveryWithinRange(t *testing.T) {
	k := sim.NewKernel()
	ch, trs, got := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 100}, {X: 400}})
	if err := ch.Send(trs[0], Frame{Bytes: 512, Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 1 || got[1][0] != "hello" {
		t.Fatalf("in-range node got %v, want [hello]", got[1])
	}
	if len(got[2]) != 0 {
		t.Fatalf("out-of-range node got %v, want nothing", got[2])
	}
	if len(got[0]) != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestTxDuration(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, Params{Range: 250, Bitrate: 2e6, PropSpeed: 0})
	// 512 bytes at 2 Mb/s = 4096 bits / 2e6 = 2.048 ms.
	want := sim.Duration(2.048e-3)
	if got := ch.TxDuration(512); got != want {
		t.Fatalf("TxDuration(512) = %v, want %v", got, want)
	}
}

func TestCollisionAtCommonReceiver(t *testing.T) {
	k := sim.NewKernel()
	// A and C both in range of B; A and C transmit simultaneously.
	ch, trs, got := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 200}, {X: 400}})
	k.ScheduleFire(1, func() {
		if err := ch.Send(trs[0], Frame{Bytes: 512, Payload: "fromA"}); err != nil {
			t.Error(err)
		}
		if err := ch.Send(trs[2], Frame{Bytes: 512, Payload: "fromC"}); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 0 {
		t.Fatalf("B decoded %v despite collision", got[1])
	}
	if ch.Stats.FramesCollided == 0 {
		t.Fatal("no collisions recorded")
	}
	// A is out of range of C, so A still hears nothing but also no delivery.
	if len(got[0]) != 0 || len(got[2]) != 0 {
		t.Fatalf("A/C got %v/%v, want nothing (out of mutual range)", got[0], got[2])
	}
}

func TestNoCollisionWhenSeparated(t *testing.T) {
	k := sim.NewKernel()
	// Two disjoint pairs far apart transmit simultaneously.
	ch, trs, got := testNet(k, Default80211(),
		[]geo.Point{{X: 0}, {X: 100}, {X: 5000}, {X: 5100}})
	k.ScheduleFire(1, func() {
		_ = ch.Send(trs[0], Frame{Bytes: 512, Payload: "p1"})
		_ = ch.Send(trs[2], Frame{Bytes: 512, Payload: "p2"})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 1 || len(got[3]) != 1 {
		t.Fatalf("spatially separated transmissions interfered: %v %v", got[1], got[3])
	}
}

func TestHalfDuplexSenderMissesArrivals(t *testing.T) {
	k := sim.NewKernel()
	ch, trs, got := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 100}})
	// Both transmit at the same instant: neither can decode the other.
	k.ScheduleFire(1, func() {
		_ = ch.Send(trs[0], Frame{Bytes: 512, Payload: "a"})
		_ = ch.Send(trs[1], Frame{Bytes: 512, Payload: "b"})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("half-duplex violated: %v %v", got[0], got[1])
	}
}

func TestTxBusyError(t *testing.T) {
	k := sim.NewKernel()
	ch, trs, _ := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 100}})
	if err := ch.Send(trs[0], Frame{Bytes: 512}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Send(trs[0], Frame{Bytes: 512}); !errors.Is(err, ErrTxBusy) {
		t.Fatalf("second Send err = %v, want ErrTxBusy", err)
	}
}

func TestBusyCarrierSense(t *testing.T) {
	k := sim.NewKernel()
	ch, trs, _ := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 100}, {X: 400}})
	if ch.Busy(trs[1]) {
		t.Fatal("idle channel sensed busy")
	}
	if err := ch.Send(trs[0], Frame{Bytes: 512}); err != nil {
		t.Fatal(err)
	}
	// Immediately after send: node 1 (in range) senses busy; node 2 does not.
	k.ScheduleFire(0.001, func() {
		if !ch.Busy(trs[0]) {
			t.Error("transmitting node should sense busy")
		}
		if !ch.Busy(trs[1]) {
			t.Error("in-range node should sense busy during transmission")
		}
		if ch.Busy(trs[2]) {
			t.Error("out-of-range node should sense idle")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ch.Busy(trs[1]) {
		t.Fatal("channel still busy after transmission ended")
	}
}

func TestEnergyAccounting(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, Default80211())
	mTx := energy.NewMeter(energy.NS2Default())
	mRx := energy.NewMeter(energy.NS2Default())
	a := ch.Attach(mobility.Static(geo.Point{X: 0}), mTx, nil)
	ch.Attach(mobility.Static(geo.Point{X: 100}), mRx, nil)
	if err := ch.Send(a, Frame{Bytes: 512}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	d := ch.TxDuration(512)
	if mTx.TxTime() != d {
		t.Fatalf("sender tx time = %v, want %v", mTx.TxTime(), d)
	}
	if mRx.RxTime() != d {
		t.Fatalf("receiver rx time = %v, want %v", mRx.RxTime(), d)
	}
}

func TestDownRadio(t *testing.T) {
	k := sim.NewKernel()
	ch, trs, got := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 100}})
	trs[1].SetDown(true)
	_ = ch.Send(trs[0], Frame{Bytes: 512, Payload: "x"})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 0 {
		t.Fatal("down radio received a frame")
	}
	trs[1].SetDown(false)
	trs[0].SetDown(true)
	if err := ch.Send(trs[0], Frame{Bytes: 512, Payload: "y"}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 0 {
		t.Fatal("down radio transmitted a frame")
	}
}

func TestSequentialFramesBothDelivered(t *testing.T) {
	k := sim.NewKernel()
	ch, trs, got := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 100}})
	_ = ch.Send(trs[0], Frame{Bytes: 512, Payload: 1})
	k.ScheduleFire(0.01, func() {
		_ = ch.Send(trs[0], Frame{Bytes: 512, Payload: 2})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 2 {
		t.Fatalf("got %v, want two frames", got[1])
	}
}

func TestStatsCounters(t *testing.T) {
	k := sim.NewKernel()
	ch, trs, _ := testNet(k, Default80211(), []geo.Point{{X: 0}, {X: 100}})
	_ = ch.Send(trs[0], Frame{Bytes: 512})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ch.Stats.FramesSent != 1 || ch.Stats.FramesDelivered != 1 {
		t.Fatalf("stats = %+v, want 1 sent 1 delivered", ch.Stats)
	}
}

func TestMovingNodeLeavesRange(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, Default80211())
	var got int
	// Node b moves away at 100 m/s along x starting at 200 m.
	bPos := &linear{start: geo.Point{X: 200}, vx: 100}
	a := ch.Attach(mobility.Static(geo.Point{X: 0}), nil, nil)
	ch.Attach(bPos, nil, func(Frame, ID) { got++ })
	// At t=0 b is in range (200 < 250); at t=2 it is at 400, out of range.
	_ = ch.Send(a, Frame{Bytes: 512})
	k.ScheduleFire(2, func() { _ = ch.Send(a, Frame{Bytes: 512}) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("moving node received %d frames, want 1", got)
	}
}

// linear is a constant-velocity mobility model for tests.
type linear struct {
	start geo.Point
	vx    float64
}

func (l *linear) Pos(t sim.Time) geo.Point {
	return geo.Point{X: l.start.X + l.vx*float64(t), Y: l.start.Y}
}

// FuzzReachRejectSound checks reach's square-root-free reject: beyond may
// only turn away a pair whose exact distance exceeds the range, whatever
// the coordinates and the range, NaN, ±Inf, zero and negative values
// included. The seeds put points at Range·(1±2⁻⁵²) along an axis and a
// diagonal, at the paper's 250 m and at ranges near underflow and
// overflow; a pair whose squares sum past 250² while hypot rounds to
// 250; and a pair whose squares round up to the least subnormal each while
// the range's square rounds down to it.
func FuzzReachRejectSound(f *testing.F) {
	const eps = 0x1p-52
	for _, rng := range []float64{250, 40, 1, 1e-100, 1e-160, 5e-324, 1e154, 1.3e154, 1e300} {
		for _, s := range []float64{1 - eps, 1, 1 + eps} {
			f.Add(0.0, 0.0, rng*s, 0.0, rng)
			f.Add(-rng*s/2, 3.0, rng*s/2, 3.0, rng)
			f.Add(0.0, 0.0, rng*s*math.Sqrt2/2, rng*s*math.Sqrt2/2, rng)
		}
	}
	f.Add(0.0, 0.0, 89.98712039017707, 233.24304526369866, 250.0)
	d := math.Sqrt(0.6) * 0x1p-537 // d² is 0.6 of the least subnormal
	f.Add(0.0, 0.0, d, d, geo.Point{X: d, Y: d}.Norm())
	nan, inf := math.NaN(), math.Inf(1)
	for _, rng := range []float64{0, -250, nan, inf, -inf} {
		f.Add(0.0, 0.0, 0.0, 0.0, rng)
		f.Add(1.0, 2.0, 3.0, 4.0, rng)
		f.Add(nan, 0.0, 1.0, 1.0, rng)
		f.Add(inf, 0.0, -inf, 0.0, rng)
		f.Add(inf, 0.0, 1.0, 0.0, rng)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, rng float64) {
		a, b := geo.Point{X: ax, Y: ay}, geo.Point{X: bx, Y: by}
		if far := farBound(rng); beyond(a, b, far) && a.Dist(b) <= rng {
			t.Fatalf("range %v: rejected %v–%v at distance %v (bound %v)", rng, a, b, a.Dist(b), far)
		}
	})
}
