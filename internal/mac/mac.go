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
const Broadcast = Addr(radio.Broadcast)

// Packet is the MAC service-data unit exchanged with the layer above.
type Packet struct {
	Src     Addr
	Dst     Addr
	Payload any
	Bytes   int // payload size; the MAC adds HeaderBytes of overhead
	// Hops is the network layer's hop count. It travels in the frame
	// header (radio.Header.Hops), inside the HeaderBytes already charged,
	// so it costs no airtime and the payload need not change per hop.
	Hops int
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

// Header kinds. The zero kind marks a frame no MAC sent, which every MAC
// ignores.
const (
	frameData uint8 = iota + 1
	frameAck
)

type txJob struct {
	pkt     Packet
	seq     uint32
	retries int
}

// txRing is the outgoing queue: a FIFO of jobs held by value. It grows by
// doubling while the queue is deeper than it has ever been, never past the
// queue limit, and clears each slot as its job leaves, so a sent payload is
// not kept reachable by the queue.
type txRing struct {
	buf  []txJob
	head int
	n    int
}

// push appends j; the caller has checked n < limit.
func (q *txRing) push(j txJob, limit int) {
	if q.n == len(q.buf) {
		buf := make([]txJob, min(max(2*len(q.buf), 1), limit))
		for i := range q.n {
			buf[i] = q.buf[q.slot(i)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[q.slot(q.n)] = j
	q.n++
}

// pop removes and returns the oldest job; the caller has checked n > 0.
func (q *txRing) pop() txJob {
	j := q.buf[q.head]
	q.buf[q.head] = txJob{}
	q.head = q.slot(1)
	q.n--
	return j
}

// slot is the buffer index of the i-th queued job.
func (q *txRing) slot(i int) int {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
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

	queue    txRing
	cur      txJob
	cw       int
	sending  bool // cur holds a job, contending or awaiting its ack
	nextSeq  uint32
	ackTimer *sim.Timer
	lastSeq  map[Addr]uint32

	// acks holds the headers of the ACKs scheduled and not yet sent, oldest
	// first. Every ACK waits exactly SIFS, so they fire in the order they
	// were scheduled and each firing sends acks[0].
	acks []radio.Header

	// Hoisted callbacks for the kernel's fire-and-forget fast path: backoff
	// expiry, post-broadcast dequeue and ACK turnaround events are never
	// cancelled, and building their closures once keeps contention and
	// acknowledgement allocation-free.
	backoffExpired func()
	startNextFn    func()
	sendAckFn      func()

	onRecv       func(Packet)
	onSendFailed func(Packet)

	// Stats exposes counters for the experiment harness.
	Stats Stats
}

// New attaches a new MAC to channel ch at the given position model. The
// MAC's address equals its radio ID, so its transceiver is addressed
// (radio.Transceiver.Addressed): a frame for another MAC is overheard, never
// handed to radioRecv, which would discard it.
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
	m.tr.Addressed()
	m.addr = Addr(m.tr.ID())
	m.ackTimer = sim.NewTimer(k, m.ackTimeout)
	m.backoffExpired = func() {
		if !m.sending {
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
	m.sendAckFn = m.sendAck
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
	return m.SendPacket(Packet{Src: m.addr, Dst: dst, Payload: payload, Bytes: bytes})
}

// SendPacket queues pkt as given, its hop count included. A Src other
// than Addr() forges the link-layer source: the identity-spoofing hook of
// the fault-injection subsystem (internal/faults); correct stacks never
// set one. Receivers acknowledge the claimed source, so a spoofed
// unicast never sees its ACK and burns its whole retry budget — spoofing
// is meant for broadcast frames (STS beacons).
func (m *MAC) SendPacket(pkt Packet) error {
	if m.queue.n >= m.params.QueueLimit {
		m.Stats.DataDropped++
		return ErrQueueFull
	}
	m.nextSeq++
	m.Stats.DataQueued++
	m.queue.push(txJob{pkt: pkt, seq: m.nextSeq}, m.params.QueueLimit)
	if !m.sending {
		m.startNext()
	}
	return nil
}

// QueueLen returns the number of packets waiting (excluding the in-flight
// one).
func (m *MAC) QueueLen() int { return m.queue.n }

func (m *MAC) startNext() {
	if m.queue.n == 0 {
		m.cur = txJob{}
		m.sending = false
		return
	}
	m.cur = m.queue.pop()
	m.sending = true
	m.cw = m.params.CWMin
	m.contend()
}

// contend waits DIFS plus a random backoff, then transmits if the channel
// is clear, otherwise backs off again with a doubled window.
func (m *MAC) contend() {
	slots := sim.Duration(m.rng.Intn(m.cw + 1))
	backoff := m.params.DIFS + sim.Duration(slots*m.params.SlotTime)
	m.k.ScheduleFireTx(backoff, m.backoffExpired, m.border)
}

func (m *MAC) growCW() {
	m.cw = m.cw*2 + 1
	if m.cw > m.params.CWMax {
		m.cw = m.params.CWMax
	}
}

func (m *MAC) transmitCur() {
	pkt := m.cur.pkt
	f := radio.Frame{
		// Src is m.addr, unless forged via SendPacket.
		Header:  radio.Header{Kind: frameData, Src: int32(pkt.Src), Dst: int32(pkt.Dst), Seq: m.cur.seq, Hops: pkt.Hops},
		Bytes:   pkt.Bytes + m.params.HeaderBytes,
		Payload: pkt.Payload,
	}
	if err := m.ch.Send(m.tr, f); err != nil {
		// Radio busy (e.g. our own ACK in flight): retry shortly.
		m.growCW()
		m.contend()
		return
	}
	m.Stats.DataSent++
	d := m.ch.TxDuration(f.Bytes)
	if pkt.Dst == Broadcast {
		m.Stats.DataDelivered++
		m.k.ScheduleFire(d, m.startNextFn)
		return
	}
	// Await ACK: airtime + SIFS + ACK airtime + scheduling margin.
	ackAir := m.ch.TxDuration(m.params.AckBytes + m.params.HeaderBytes)
	m.ackTimer.Reset(d + m.params.SIFS + ackAir + sim.Duration(4*m.params.SlotTime))
}

func (m *MAC) ackTimeout() {
	if !m.sending {
		return
	}
	m.cur.retries++
	m.Stats.Retries++
	if m.cur.retries > m.params.RetryLimit {
		m.Stats.DataDropped++
		if m.onSendFailed != nil {
			m.onSendFailed(m.cur.pkt)
		}
		m.startNext()
		return
	}
	m.growCW()
	m.contend()
}

// radioRecv handles every frame the physical layer decodes.
func (m *MAC) radioRecv(rf radio.Frame, _ radio.ID) {
	h := rf.Header
	src, dst := Addr(h.Src), Addr(h.Dst)
	switch h.Kind {
	case frameAck:
		if m.sending && dst == m.addr && src == m.cur.pkt.Dst && h.Seq == m.cur.seq {
			m.ackTimer.Stop()
			m.Stats.DataDelivered++
			m.startNext()
		}
	case frameData:
		if dst != m.addr && dst != Broadcast {
			return
		}
		if dst == m.addr {
			m.scheduleAck(h)
			// Suppress duplicates caused by lost ACKs. Presence in the
			// map is the "have seen this sender" bit — one lookup on the
			// per-frame hot path.
			if last, ok := m.lastSeq[src]; ok && last == h.Seq {
				m.Stats.Duplicates++
				return
			}
			m.lastSeq[src] = h.Seq
		}
		if m.onRecv != nil {
			m.onRecv(Packet{Src: src, Dst: dst, Payload: rf.Payload, Bytes: rf.Bytes - m.params.HeaderBytes, Hops: h.Hops})
		}
	}
}

// scheduleAck queues the acknowledgement of data frame h for sending SIFS
// from now.
func (m *MAC) scheduleAck(h radio.Header) {
	m.acks = append(m.acks, radio.Header{Kind: frameAck, Src: int32(m.addr), Dst: h.Src, Seq: h.Seq})
	m.k.ScheduleFireTx(m.params.SIFS, m.sendAckFn, m.border)
}

// sendAck puts the oldest scheduled ACK on the air.
func (m *MAC) sendAck() {
	f := radio.Frame{Header: m.acks[0], Bytes: m.params.AckBytes + m.params.HeaderBytes}
	m.acks = m.acks[:copy(m.acks, m.acks[1:])]
	if err := m.ch.Send(m.tr, f); err == nil {
		m.Stats.AcksSent++
	}
}
