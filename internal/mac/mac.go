// Package mac implements a CSMA/CA medium-access layer in the style of the
// 802.11 distributed coordination function: carrier sense, binary
// exponential backoff, SIFS/DIFS interframe spacing, and unicast
// ACK/retransmission. Broadcast frames are sent once, unacknowledged, as in
// 802.11. This is the "MAC Layer" box of the paper's node architecture
// (Fig. 1); the figures it feeds depend on contention losses and per-packet
// airtime, which this model captures, not on bit-level 802.11 detail.
package mac

import (
	"errors"

	"innercircle/internal/energy"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

// Addr is a link-layer address. Every MAC on a channel has a unique Addr.
type Addr int

// Broadcast is the all-nodes destination address.
const Broadcast Addr = -1

// Packet is the MAC service-data unit exchanged with the layer above.
type Packet struct {
	Src     Addr
	Dst     Addr
	Payload any
	Bytes   int // payload size; the MAC adds HeaderBytes of overhead
}

// Params configure the MAC.
type Params struct {
	SlotTime    sim.Duration
	SIFS        sim.Duration
	DIFS        sim.Duration
	CWMin       int // initial contention window, in slots
	CWMax       int
	RetryLimit  int // unicast retransmissions before giving up
	HeaderBytes int // per-frame MAC+network header overhead
	AckBytes    int
	QueueLimit  int // outgoing queue capacity
}

// Default80211 returns DCF-like parameters.
func Default80211() Params {
	return Params{
		SlotTime:    20 * sim.Microsecond,
		SIFS:        10 * sim.Microsecond,
		DIFS:        50 * sim.Microsecond,
		CWMin:       31,
		CWMax:       1023,
		RetryLimit:  7,
		HeaderBytes: 52,
		AckBytes:    14,
		QueueLimit:  64,
	}
}

// ErrQueueFull is returned by Send when the outgoing queue is at capacity.
var ErrQueueFull = errors.New("mac: transmit queue full")

type frameKind int

const (
	frameData frameKind = iota + 1
	frameAck
)

// frame is what actually crosses the radio channel.
type frame struct {
	kind    frameKind
	src     Addr
	dst     Addr
	seq     uint32
	payload any
	bytes   int
}

type txJob struct {
	pkt     Packet
	seq     uint32
	retries int
}

// Stats counts MAC-level activity.
type Stats struct {
	DataSent      uint64 // transmissions put on the air (including retries)
	DataQueued    uint64
	DataDelivered uint64 // unicast sends confirmed by ACK + broadcasts sent
	DataDropped   uint64 // retry limit exceeded or queue overflow
	AcksSent      uint64
	Retries       uint64
	Duplicates    uint64 // received duplicates suppressed
}

// MAC is one node's medium-access entity. It owns its radio transceiver.
// Not safe for concurrent use; all calls happen on the simulation thread.
type MAC struct {
	k      *sim.Kernel
	ch     *radio.Channel
	tr     *radio.Transceiver
	rng    *sim.RNG
	params Params
	addr   Addr

	// border marks a node within one transmission range of a shard-stripe
	// boundary on a sharded channel: its transmission events must be
	// tx-flagged so the shard's horizon accounts for them (see
	// sim.Kernel.ScheduleFireTx). Always false unsharded.
	border bool

	queue    []*txJob
	cur      *txJob
	cw       int
	sending  bool // currently contending or awaiting ack for cur
	nextSeq  uint32
	ackTimer *sim.Timer
	lastSeq  map[Addr]uint32

	// Hoisted callbacks for the kernel's fire-and-forget fast path: backoff
	// expiry and post-broadcast dequeue events are never cancelled, and
	// building their closures once keeps contention allocation-free.
	backoffExpired func()
	startNextFn    func()

	onRecv       func(Packet)
	onSendFailed func(Packet)

	// Stats exposes counters for the experiment harness.
	Stats Stats
}

// New attaches a new MAC to channel ch at the given position model. The
// MAC's address equals its radio ID.
func New(k *sim.Kernel, ch *radio.Channel, pos mobility.Model, meter *energy.Meter, rng *sim.RNG, params Params) *MAC {
	m := &MAC{
		k:       k,
		ch:      ch,
		rng:     rng,
		params:  params,
		cw:      params.CWMin,
		lastSeq: make(map[Addr]uint32),
	}
	m.tr = ch.Attach(pos, meter, m.radioRecv)
	m.addr = Addr(m.tr.ID())
	m.ackTimer = sim.NewTimer(k, m.ackTimeout)
	m.backoffExpired = func() {
		if m.cur == nil {
			return
		}
		if m.ch.Busy(m.tr) {
			m.growCW()
			m.contend()
			return
		}
		m.transmitCur()
	}
	m.startNextFn = m.startNext
	return m
}

// Addr returns this MAC's link-layer address.
func (m *MAC) Addr() Addr { return m.addr }

// Transceiver returns the underlying radio, for tests and for modelling
// node crashes.
func (m *MAC) Transceiver() *radio.Transceiver { return m.tr }

// MarkBorder declares this MAC a border node on a sharded channel. Every
// event that can put a frame on the air (backoff expiry, ACK turnaround)
// is then scheduled through the kernel's tx-flagged path, which feeds the
// shard's transmission horizon. The two delays involved — DIFS plus
// backoff, and SIFS — are both at least the shard lookahead min(SIFS, DIFS),
// which is what makes conservative synchronization sound.
func (m *MAC) MarkBorder() { m.border = true }

// OnRecv registers the upcall for received packets.
func (m *MAC) OnRecv(fn func(Packet)) { m.onRecv = fn }

// OnSendFailed registers the upcall invoked when a unicast packet exhausts
// its retries (the signal ad hoc routing uses to declare a broken link).
func (m *MAC) OnSendFailed(fn func(Packet)) { m.onSendFailed = fn }

// Send queues a packet for transmission.
func (m *MAC) Send(dst Addr, payload any, bytes int) error {
	return m.enqueue(Packet{Src: m.addr, Dst: dst, Payload: payload, Bytes: bytes})
}

// SendAs queues a packet whose link-layer source is forged as src. It is
// the identity-spoofing hook of the fault-injection subsystem
// (internal/faults); correct stacks never call it. Receivers acknowledge
// the claimed source, so a spoofed unicast never sees its ACK and burns
// its whole retry budget — spoofing is meant for broadcast frames (STS
// beacons).
func (m *MAC) SendAs(src, dst Addr, payload any, bytes int) error {
	return m.enqueue(Packet{Src: src, Dst: dst, Payload: payload, Bytes: bytes})
}

func (m *MAC) enqueue(pkt Packet) error {
	if len(m.queue) >= m.params.QueueLimit {
		m.Stats.DataDropped++
		return ErrQueueFull
	}
	m.nextSeq++
	m.Stats.DataQueued++
	m.queue = append(m.queue, &txJob{pkt: pkt, seq: m.nextSeq})
	if !m.sending {
		m.startNext()
	}
	return nil
}

// QueueLen returns the number of packets waiting (excluding the in-flight
// one).
func (m *MAC) QueueLen() int { return len(m.queue) }

func (m *MAC) startNext() {
	if len(m.queue) == 0 {
		m.cur = nil
		m.sending = false
		return
	}
	m.cur = m.queue[0]
	m.queue = m.queue[1:]
	m.sending = true
	m.cw = m.params.CWMin
	m.contend()
}

// contend waits DIFS plus a random backoff, then transmits if the channel
// is clear, otherwise backs off again with a doubled window.
func (m *MAC) contend() {
	backoff := m.params.DIFS + sim.Duration(m.rng.Intn(m.cw+1))*m.params.SlotTime
	m.k.ScheduleFireTx(backoff, m.backoffExpired, m.border)
}

func (m *MAC) growCW() {
	m.cw = m.cw*2 + 1
	if m.cw > m.params.CWMax {
		m.cw = m.params.CWMax
	}
}

func (m *MAC) transmitCur() {
	job := m.cur
	f := frame{
		kind:    frameData,
		src:     job.pkt.Src, // m.addr, unless forged via SendAs
		dst:     job.pkt.Dst,
		seq:     job.seq,
		payload: job.pkt.Payload,
		bytes:   job.pkt.Bytes,
	}
	air := job.pkt.Bytes + m.params.HeaderBytes
	if err := m.ch.Send(m.tr, radio.Frame{Bytes: air, Payload: f}); err != nil {
		// Radio busy (e.g. our own ACK in flight): retry shortly.
		m.growCW()
		m.contend()
		return
	}
	m.Stats.DataSent++
	d := m.ch.TxDuration(air)
	if job.pkt.Dst == Broadcast {
		m.Stats.DataDelivered++
		m.k.ScheduleFire(d, m.startNextFn)
		return
	}
	// Await ACK: airtime + SIFS + ACK airtime + scheduling margin.
	ackAir := m.ch.TxDuration(m.params.AckBytes + m.params.HeaderBytes)
	m.ackTimer.Reset(d + m.params.SIFS + ackAir + 4*m.params.SlotTime)
}

func (m *MAC) ackTimeout() {
	job := m.cur
	if job == nil {
		return
	}
	job.retries++
	m.Stats.Retries++
	if job.retries > m.params.RetryLimit {
		m.Stats.DataDropped++
		if m.onSendFailed != nil {
			m.onSendFailed(job.pkt)
		}
		m.startNext()
		return
	}
	m.growCW()
	m.contend()
}

// radioRecv handles every frame the physical layer decodes.
func (m *MAC) radioRecv(rf radio.Frame, _ radio.ID) {
	f, ok := rf.Payload.(frame)
	if !ok {
		return
	}
	switch f.kind {
	case frameAck:
		if m.cur != nil && f.dst == m.addr && f.src == m.cur.pkt.Dst && f.seq == m.cur.seq {
			m.ackTimer.Stop()
			m.Stats.DataDelivered++
			m.startNext()
		}
	case frameData:
		if f.dst != m.addr && f.dst != Broadcast {
			return
		}
		if f.dst == m.addr {
			m.sendAck(f)
			// Suppress duplicates caused by lost ACKs. Presence in the
			// map is the "have seen this sender" bit — one lookup on the
			// per-frame hot path.
			if last, ok := m.lastSeq[f.src]; ok && last == f.seq {
				m.Stats.Duplicates++
				return
			}
			m.lastSeq[f.src] = f.seq
		}
		if m.onRecv != nil {
			m.onRecv(Packet{Src: f.src, Dst: f.dst, Payload: f.payload, Bytes: f.bytes})
		}
	}
}

func (m *MAC) sendAck(f frame) {
	ack := frame{kind: frameAck, src: m.addr, dst: f.src, seq: f.seq}
	m.k.ScheduleFireTx(m.params.SIFS, func() {
		air := m.params.AckBytes + m.params.HeaderBytes
		if err := m.ch.Send(m.tr, radio.Frame{Bytes: air, Payload: ack}); err == nil {
			m.Stats.AcksSent++
		}
	}, m.border)
}
