package mac

import (
	"errors"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

// build creates a channel plus one MAC per position; received packets are
// recorded per node.
func build(k *sim.Kernel, positions []geo.Point) ([]*MAC, [][]Packet) {
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(1)
	macs := make([]*MAC, len(positions))
	got := make([][]Packet, len(positions))
	for i, p := range positions {
		i := i
		macs[i] = New(k, ch, mobility.Static(p), nil, rng.SplitN("mac", i), Default80211())
		macs[i].OnRecv(func(pkt Packet) { got[i] = append(got[i], pkt) })
	}
	return macs, got
}

func TestUnicastDelivery(t *testing.T) {
	k := sim.NewKernel()
	macs, got := build(k, []geo.Point{{X: 0}, {X: 100}})
	if err := macs[0].Send(macs[1].Addr(), "hi", 512); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 1 || got[1][0].Payload != "hi" {
		t.Fatalf("receiver got %v, want one 'hi'", got[1])
	}
	if got[1][0].Src != macs[0].Addr() {
		t.Fatalf("src = %v, want %v", got[1][0].Src, macs[0].Addr())
	}
	if macs[0].Stats.DataDelivered != 1 {
		t.Fatalf("sender delivered count = %d, want 1", macs[0].Stats.DataDelivered)
	}
}

func TestUnicastNotDeliveredToThirdParty(t *testing.T) {
	k := sim.NewKernel()
	macs, got := build(k, []geo.Point{{X: 0}, {X: 100}, {X: 50}})
	if err := macs[0].Send(macs[1].Addr(), "private", 512); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(got[2]) != 0 {
		t.Fatalf("third party overheard unicast: %v", got[2])
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	k := sim.NewKernel()
	macs, got := build(k, []geo.Point{{X: 0}, {X: 100}, {X: 200}, {X: 600}})
	if err := macs[0].Send(Broadcast, "bcast", 64); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 1 || len(got[2]) != 1 {
		t.Fatalf("in-range nodes got %d/%d broadcasts, want 1/1", len(got[1]), len(got[2]))
	}
	if len(got[3]) != 0 {
		t.Fatal("out-of-range node received broadcast")
	}
}

func TestRetryLimitAndFailureCallback(t *testing.T) {
	k := sim.NewKernel()
	macs, _ := build(k, []geo.Point{{X: 0}, {X: 1000}}) // out of range
	var failed []Packet
	macs[0].OnSendFailed(func(p Packet) { failed = append(failed, p) })
	if err := macs[0].Send(macs[1].Addr(), "lost", 512); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 {
		t.Fatalf("send-failed callbacks = %d, want 1", len(failed))
	}
	if macs[0].Stats.Retries != uint64(Default80211().RetryLimit)+1 {
		t.Fatalf("retries = %d, want %d", macs[0].Stats.Retries, Default80211().RetryLimit+1)
	}
	if macs[0].Stats.DataDropped != 1 {
		t.Fatalf("dropped = %d, want 1", macs[0].Stats.DataDropped)
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	k := sim.NewKernel()
	macs, got := build(k, []geo.Point{{X: 0}, {X: 100}})
	for i := 0; i < 10; i++ {
		if err := macs[0].Send(macs[1].Addr(), i, 256); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 10 {
		t.Fatalf("delivered %d packets, want 10", len(got[1]))
	}
	for i, p := range got[1] {
		if p.Payload != i {
			t.Fatalf("out-of-order delivery: got %v at index %d", p.Payload, i)
		}
	}
}

func TestQueueOverflow(t *testing.T) {
	k := sim.NewKernel()
	macs, _ := build(k, []geo.Point{{X: 0}, {X: 100}})
	params := Default80211()
	var errFull error
	for i := 0; i < params.QueueLimit+5; i++ {
		if err := macs[0].Send(macs[1].Addr(), i, 256); err != nil {
			errFull = err
		}
	}
	if !errors.Is(errFull, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", errFull)
	}
}

func TestContentionManySendersAllDeliver(t *testing.T) {
	k := sim.NewKernel()
	// Five senders around one receiver, all within range of each other.
	positions := []geo.Point{{X: 0}, {X: 50}, {X: -50}, {X: 0, Y: 50}, {X: 0, Y: -50}, {X: 30, Y: 30}}
	macs, got := build(k, positions)
	for i := 1; i < len(macs); i++ {
		if err := macs[i].Send(macs[0].Addr(), i, 512); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 5 {
		t.Fatalf("receiver got %d packets under contention, want 5 (CSMA/ARQ should recover)", len(got[0]))
	}
}

func TestDuplicateSuppression(t *testing.T) {
	k := sim.NewKernel()
	macs, got := build(k, []geo.Point{{X: 0}, {X: 100}})
	// Two distinct packets with the same payload are both delivered; MAC
	// dedup only suppresses retransmissions of the same sequence number.
	_ = macs[0].Send(macs[1].Addr(), "x", 128)
	_ = macs[0].Send(macs[1].Addr(), "x", 128)
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 2 {
		t.Fatalf("got %d, want 2 distinct deliveries", len(got[1]))
	}
}

func TestAddrMatchesRadioID(t *testing.T) {
	k := sim.NewKernel()
	macs, _ := build(k, []geo.Point{{X: 0}, {X: 100}, {X: 200}})
	for i, m := range macs {
		if int(m.Addr()) != i {
			t.Fatalf("mac %d has addr %v", i, m.Addr())
		}
	}
}

func TestHiddenTerminalEventuallyDelivers(t *testing.T) {
	k := sim.NewKernel()
	// A and C cannot hear each other but both reach B: the classic hidden
	// terminal. ARQ must recover the collisions.
	macs, got := build(k, []geo.Point{{X: 0}, {X: 240}, {X: 480}})
	for i := 0; i < 5; i++ {
		_ = macs[0].Send(macs[1].Addr(), i, 512)
		_ = macs[2].Send(macs[1].Addr(), 100+i, 512)
	}
	if err := k.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) < 8 {
		t.Fatalf("hidden-terminal scenario delivered only %d/10 packets", len(got[1]))
	}
}

// TestMACDoesNotAllocate guards the frame path below the protocol message:
// the header rides in radio.Frame by value, jobs wait in the queue ring by
// value, and ACKs go out through the one callback built in New. Once the
// ring, the ACK FIFO, the radio's arrival pool and the kernel's event pool
// have reached working size, a broadcast send→delivery cycle and a unicast
// data→ACK cycle allocate nothing. The payload is boxed once, outside the
// measured closure, as the link layer's message already is.
func TestMACDoesNotAllocate(t *testing.T) {
	k := sim.NewKernel()
	macs, _ := build(k, []geo.Point{{X: 0}, {X: 100}, {X: 200}})
	heard := 0
	for _, m := range macs[1:] {
		m.OnRecv(func(Packet) { heard++ })
	}
	var payload any = struct{ a, b int }{1, 2}
	for _, c := range []struct {
		name string
		dst  Addr
		hear int // receptions per cycle
		acks int // ACKs per cycle
	}{{"broadcast", Broadcast, 2, 0}, {"unicast", macs[1].Addr(), 1, 1}} {
		cycle := func() {
			if err := macs[0].Send(c.dst, payload, 64); err != nil {
				t.Fatal(err)
			}
			if err := k.Run(k.Now() + 10*sim.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		// Warm-up: enough cycles for the random backoffs to have touched
		// every timer-wheel slot the measured ones can land in.
		for range 1000 {
			cycle()
		}
		delivered, acks, heard0 := macs[0].Stats.DataDelivered, macs[1].Stats.AcksSent, heard
		// AllocsPerRun calls cycle once more than it measures.
		const runs = 200
		if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", c.name, allocs)
		}
		if got := macs[0].Stats.DataDelivered - delivered; got != runs+1 {
			t.Fatalf("%s: %d of %d sends delivered; the guard is vacuous", c.name, got, runs+1)
		}
		if got := heard - heard0; got != c.hear*(runs+1) {
			t.Fatalf("%s: %d receptions, want %d", c.name, got, c.hear*(runs+1))
		}
		if got := macs[1].Stats.AcksSent - acks; got != uint64(c.acks*(runs+1)) {
			t.Fatalf("%s: %d ACKs sent, want %d", c.name, got, c.acks*(runs+1))
		}
	}
}

// TestHeaderCarriesForgedSourceAndPayloadSize checks the header fields that
// travel in radio.Frame: a SendPacket broadcast arrives with the forged
// source and its hop count, and every receiver's Packet.Bytes is the
// payload size the sender passed, without the MAC header.
func TestHeaderCarriesForgedSourceAndPayloadSize(t *testing.T) {
	k := sim.NewKernel()
	macs, got := build(k, []geo.Point{{X: 0}, {X: 100}, {X: 200}})
	const forged Addr = 1 << 20
	if err := macs[0].SendPacket(Packet{Src: forged, Dst: Broadcast, Payload: "spoof", Bytes: 77, Hops: -3}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := macs[0].Send(macs[2].Addr(), "direct", 333); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(2); err != nil {
		t.Fatal(err)
	}
	want := map[int][]Packet{
		1: {{Src: forged, Dst: Broadcast, Payload: "spoof", Bytes: 77, Hops: -3}},
		2: {{Src: forged, Dst: Broadcast, Payload: "spoof", Bytes: 77, Hops: -3}, {Src: macs[0].Addr(), Dst: macs[2].Addr(), Payload: "direct", Bytes: 333}},
	}
	for i, w := range want {
		if len(got[i]) != len(w) {
			t.Fatalf("node %d got %+v, want %+v", i, got[i], w)
		}
		for j := range w {
			if got[i][j] != w[j] {
				t.Fatalf("node %d packet %d = %+v, want %+v", i, j, got[i][j], w[j])
			}
		}
	}
}

// TestSimultaneousDataFramesAckedInOrder drives radioRecv directly with two
// data frames for one MAC in the same instant: both are acknowledged, each
// ACK addressed to its frame's source with its frame's seq, and the ACK
// callback sends them in the order the frames arrived.
func TestSimultaneousDataFramesAckedInOrder(t *testing.T) {
	k := sim.NewKernel()
	macs, got := build(k, []geo.Point{{X: 0}, {X: 100}, {X: 200}})
	m := macs[0]
	var fired []radio.Header
	m.sendAckFn = func() {
		fired = append(fired, m.acks[0])
		m.sendAck()
	}
	var onAir []radio.Header
	m.ch.Attach(mobility.Static(geo.Point{X: 50}), nil, func(f radio.Frame, _ radio.ID) { onAir = append(onAir, f.Header) })
	m.radioRecv(radio.Frame{Header: radio.Header{Kind: frameData, Src: 2, Dst: int32(m.addr), Seq: 9}, Bytes: 100, Payload: "b"}, 2)
	m.radioRecv(radio.Frame{Header: radio.Header{Kind: frameData, Src: 1, Dst: int32(m.addr), Seq: 4}, Bytes: 100, Payload: "a"}, 1)
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	want := []radio.Header{
		{Kind: frameAck, Src: int32(m.addr), Dst: 2, Seq: 9},
		{Kind: frameAck, Src: int32(m.addr), Dst: 1, Seq: 4},
	}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("ACKs fired %+v, want %+v", fired, want)
	}
	if len(m.acks) != 0 {
		t.Fatalf("%d ACKs still pending", len(m.acks))
	}
	// Both ACKs fire SIFS after the frames, so the second finds the radio
	// still sending the first: only the first reaches the air.
	if len(onAir) != 1 || onAir[0] != want[0] || m.Stats.AcksSent != 1 {
		t.Fatalf("on air %+v, AcksSent %d; want %+v once", onAir, m.Stats.AcksSent, want[0])
	}
	if len(got[0]) != 2 || got[0][0].Payload != "b" || got[0][1].Payload != "a" {
		t.Fatalf("delivered %+v, want b then a", got[0])
	}
}

// TestQueueRingBoundedAndCleared keeps a MAC busy across several queue
// lifetimes — each round refills the queue to its limit after a partial
// drain, so the ring's head wraps — and checks that the ring never outgrows
// QueueLimit and that once the queue drains no slot, and no in-flight job,
// still holds a sent payload.
func TestQueueRingBoundedAndCleared(t *testing.T) {
	k := sim.NewKernel()
	macs, got := build(k, []geo.Point{{X: 0}, {X: 100}})
	m, limit := macs[0], Default80211().QueueLimit
	sent := 0
	for range 5 {
		for m.QueueLen() < limit {
			if err := m.Send(macs[1].Addr(), new(int), 64); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if len(m.queue.buf) > limit {
			t.Fatalf("ring holds %d slots, above the queue limit %d", len(m.queue.buf), limit)
		}
		if err := k.Run(k.Now() + 20*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(k.Now() + 1); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != sent {
		t.Fatalf("delivered %d of %d", len(got[1]), sent)
	}
	for i, j := range m.queue.buf {
		if j.pkt.Payload != nil {
			t.Fatalf("slot %d still holds a sent payload", i)
		}
	}
	if m.sending || m.cur.pkt.Payload != nil {
		t.Fatal("the finished job is still in flight")
	}
}
