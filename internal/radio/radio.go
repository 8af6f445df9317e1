// Package radio models the wireless physical layer: unit-disk propagation
// with a fixed transmission range, transmission timing derived from frame
// size and bitrate, half-duplex transceivers, and collisions when
// transmissions overlap at a receiver. It corresponds to the 802.11
// physical layer configuration of the paper's ns-2 experiments (250 m range
// for the ad hoc scenario, 40 m for the sensor scenario, 2 Mb/s).
package radio

import (
	"errors"

	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// Params configure the physical layer.
type Params struct {
	// Range is the transmission (and carrier-sense) radius in metres.
	Range float64 `json:"range"`
	// Bitrate is the channel rate in bits per second.
	Bitrate float64 `json:"bitrate"`
	// PropSpeed is the signal propagation speed in m/s.
	PropSpeed float64 `json:"prop_speed"`
}

// Default80211 returns the parameters used by the paper's ad hoc experiment.
func Default80211() Params {
	return Params{Range: 250, Bitrate: 2e6, PropSpeed: 3e8}
}

// Frame is the unit of transmission on the channel. Bytes drives airtime;
// Payload is opaque to the physical layer.
type Frame struct {
	Bytes   int
	Payload any
}

// ErrTxBusy is returned when a transceiver is asked to transmit while a
// previous transmission is still on the air.
var ErrTxBusy = errors.New("radio: transceiver already transmitting")

// ID identifies a transceiver on its channel.
type ID int

// arrival is a signal in flight toward one receiver. Arrivals are recycled
// through the receiving shard's free list when they resolve; to points back
// at the receiver so the resolution callback needs no per-arrival closure.
type arrival struct {
	frame    Frame
	from     ID
	to       *Transceiver
	start    sim.Time
	end      sim.Time
	collided bool
}

// receiver is one in-range destination of a transmission and the
// propagation delay to it.
type receiver struct {
	r    *Transceiver
	prop sim.Duration
}

// Transceiver is one radio attached to a Channel.
type Transceiver struct {
	id       ID
	pos      mobility.Model
	meter    *energy.Meter
	recv     func(Frame, ID)
	txUntil  sim.Time
	arrivals []*arrival
	down     bool

	// Position cache: static transceivers hold their fixed position in
	// cachedPos forever; mobile ones cache the last Pos evaluation so every
	// query at the same virtual time reuses it.
	static    bool
	cachedPos geo.Point
	cachedAt  sim.Time
	hasCache  bool

	// Spatial-index bin (see grid.go).
	binKey cellKey
	inGrid bool

	// Receiver table (see Channel.receivers): on a channel where nothing
	// moves, the receivers this transceiver's Send reaches, kept from the
	// first enumeration and valid while rxGen equals the channel's attach
	// generation. Read and written only on this transceiver's own kernel.
	rx    []receiver
	rxGen uint32

	// Placement (see shard.go): the index of the shard that owns this
	// transceiver's events (0 on a single-kernel channel), and whether it
	// sits within one transmission range of a stripe boundary.
	owner  int32
	border bool
}

// ID returns the transceiver's channel-local identifier.
func (t *Transceiver) ID() ID { return t.id }

// SetDown disables (true) or enables (false) the radio. A down radio
// neither transmits nor receives; used to model crashed nodes.
func (t *Transceiver) SetDown(down bool) { t.down = down }

// Channel is the shared medium connecting a set of transceivers. It is
// driven by the simulation kernel(s) of its shards; a channel built by
// NewChannel has exactly one and is not safe for concurrent use.
type Channel struct {
	params Params
	trs    []*Transceiver
	// attachGen counts Attach calls; a receiver table built at an earlier
	// generation is stale.
	attachGen uint32

	// shards holds one chanShard per kernel the channel runs on (see
	// shard.go): one for NewChannel, one per stripe for NewChannelSharded,
	// where set carries cross-kernel registrations and ownerOf maps a static
	// position to its home shard. A transceiver's owner indexes shards.
	shards  []*chanShard
	set     *sim.ShardSet
	ownerOf func(geo.Point) (shard int, border bool)

	// grid is the spatial neighbor index (nil when Range <= 0); useIndex
	// picks between its candidate sets and the linear scan over every
	// transceiver, which is both the adaptive fallback and the tests'
	// reference (SetIndexEnabled).
	grid     *gridIndex
	useIndex bool

	// The index pays off only when it prunes more distance checks than the
	// per-epoch mobile re-bin costs. Both enumerations are behaviorally
	// identical, so the channel is free to pick whichever is cheaper: while
	// adaptive, the first probeSends indexed sends sample the candidate
	// count, and the index is dropped for the rest of the run if the observed
	// pruning (scanned − candidates) does not exceed the mobile population it
	// has to re-bin each epoch. SetIndexEnabled pins the choice and skips the
	// probe.
	adaptive  bool
	probes    int
	probeCand uint64
	probeScan uint64

	// Stats counts physical-layer activity for the whole channel: live on a
	// single-kernel channel, folded from the per-shard counters by
	// MergeShardStats on a sharded one.
	Stats Stats
}

// Stats aggregates channel counters.
type Stats struct {
	FramesSent      uint64
	FramesDelivered uint64
	FramesCollided  uint64
}

// probeSends is the number of indexed sends an adaptive channel samples
// before deciding whether the index prunes enough to keep.
const probeSends = 128

// NewChannel returns an empty channel on kernel k. The spatial neighbor
// index starts on in adaptive mode: it is behaviorally invisible, and the
// channel falls back to the linear scan if the probe finds the deployment
// geometry defeats pruning.
func NewChannel(k *sim.Kernel, params Params) *Channel {
	c := &Channel{params: params}
	c.shards = []*chanShard{newChanShard(k, &c.Stats)}
	if params.Range > 0 {
		c.grid = newGridIndex(params.Range)
		c.useIndex = true
		c.adaptive = true
	}
	return c
}

// SetIndexEnabled turns the spatial neighbor index on or off, pinning the
// choice (no adaptive fallback). The index is maintained either way, so
// toggling is valid at any point on a single-kernel channel (on a sharded
// one only before the run: its shards read the choice concurrently);
// equivalence tests use this to compare indexed and full-scan runs
// in-process.
func (c *Channel) SetIndexEnabled(on bool) {
	c.useIndex = on && c.grid != nil
	c.adaptive = false
}

// Attach adds a transceiver whose position follows pos, whose energy is
// accounted to meter (may be nil), and whose successfully received frames
// are delivered to recv along with the sender's ID.
func (c *Channel) Attach(pos mobility.Model, meter *energy.Meter, recv func(Frame, ID)) *Transceiver {
	tr := &Transceiver{
		id:       ID(len(c.trs)),
		pos:      pos,
		meter:    meter,
		recv:     recv,
		arrivals: make([]*arrival, 0, 8),
	}
	if s, ok := pos.(mobility.Static); ok {
		tr.static = true
		tr.cachedPos = geo.Point(s)
	}
	c.trs = append(c.trs, tr)
	c.attachGen++
	if c.grid != nil {
		c.grid.add(tr)
	}
	if c.set != nil {
		c.attachSharded(tr)
	}
	return tr
}

// posAt returns tr's position at now, consulting the per-transceiver cache.
// Virtual time never decreases, so an exact-timestamp match is safe.
func (c *Channel) posAt(tr *Transceiver, now sim.Time) geo.Point {
	if tr.static {
		return tr.cachedPos
	}
	if tr.hasCache && tr.cachedAt == now {
		return tr.cachedPos
	}
	p := tr.pos.Pos(now)
	tr.cachedPos = p
	tr.cachedAt = now
	tr.hasCache = true
	return p
}

// TxDuration returns the airtime of a frame of the given size.
func (c *Channel) TxDuration(bytes int) sim.Duration {
	return sim.Duration(float64(bytes*8) / c.params.Bitrate)
}

// Busy reports whether tr senses the channel busy: it is transmitting, or a
// signal from a node in range is currently arriving.
func (c *Channel) Busy(tr *Transceiver) bool {
	now := c.kernelFor(tr).Now()
	if tr.txUntil > now {
		return true
	}
	for _, a := range tr.arrivals {
		if a.end > now {
			return true
		}
	}
	return false
}

// Send starts transmitting frame from tr. Delivery (or collision) at each
// in-range receiver resolves when the frame's airtime ends. Send does not
// carrier-sense; that is the MAC's job. Sender-side state is touched here,
// on the sender's kernel; everything a reception mutates belongs to the
// receiver's shard.
//
// A receiver on the sender's kernel is registered directly unless it is
// down. A receiver on another kernel has its registration — down check
// included — posted to its own shard at the send instant (not first-bit
// arrival): carrier sense must see a neighbor's transmission from the
// moment it starts. Posting is only legal inside a tx-flagged event, which
// the border geometry guarantees this is (a sender in range of another
// stripe is in range of the boundary, hence border-marked).
func (c *Channel) Send(tr *Transceiver, f Frame) error {
	sc := c.shards[tr.owner]
	now := sc.k.Now()
	if tr.down {
		return nil // a dead radio silently drops
	}
	if tr.txUntil > now {
		return ErrTxBusy
	}
	sc.stats.FramesSent++
	d := c.TxDuration(f.Bytes)
	tr.txUntil = now + d
	if tr.meter != nil {
		tr.meter.AddTx(d)
	}
	// Half-duplex: anything arriving at the sender is lost.
	for _, a := range tr.arrivals {
		if a.end > now {
			a.collided = true
		}
	}
	for _, e := range c.receivers(sc, tr, now) {
		if r := e.r; r.owner != tr.owner {
			c.set.Post(sc.k, int(r.owner), now, c.shards[r.owner].registerFn, &remoteArrival{
				frame: f, from: tr.id, to: r, start: now + e.prop, air: d,
			})
		} else if !r.down {
			sc.register(r, f, tr.id, now+e.prop, d)
		}
	}
	return nil
}

// receivers returns the transceivers in range of tr at now, in ascending ID
// with their propagation delays. Where nothing on the channel can move the
// answer is a constant of the deployment: a static sender keeps it from its
// first Send and reuses it until another transceiver attaches, so only what
// varies — whether a receiver is down — is read per send. Otherwise the
// answer is enumerated into the shard's scratch buffer.
func (c *Channel) receivers(sc *chanShard, tr *Transceiver, now sim.Time) []receiver {
	memo := tr.static && c.grid != nil && len(c.grid.mobile) == 0
	if memo && tr.rxGen == c.attachGen {
		return tr.rx
	}
	src := c.posAt(tr, now)
	out := sc.rx[:0]
	if c.useIndex {
		// Spatial index: only the 3×3 cell neighborhood can hold in-range
		// receivers. Candidates come back in ascending ID — the full-scan
		// visit order — so the two enumerations schedule identical event
		// sequences.
		cand := sc.candidates(c, src, now)
		for _, i := range cand {
			out = c.inRange(out, c.trs[i], tr, src, now, memo)
		}
		if c.adaptive {
			c.probeDecide(len(cand))
		}
	} else {
		for _, r := range c.trs {
			out = c.inRange(out, r, tr, src, now, memo)
		}
	}
	sc.rx = out
	if memo {
		tr.rx, tr.rxGen = append(tr.rx[:0], out...), c.attachGen
		sc.tableBuilds++
		return tr.rx
	}
	return out
}

// probeDecide accumulates one indexed enumeration's candidate count and,
// once probeSends of them have been sampled, commits to the index or the
// full scan for the rest of the run. The index earns its keep when the
// distance checks it prunes (scanned − candidates) outnumber the mobile
// transceivers it must re-bin every virtual-time epoch; otherwise the full
// scan is cheaper. The decision depends only on deterministic simulation
// state, so replays stay reproducible. (An all-static channel enumerates
// once per transmitter, so a small one may never reach the sample size; it
// keeps the index, which is what the probe would conclude with nothing to
// re-bin.)
func (c *Channel) probeDecide(cand int) {
	c.probes++
	c.probeCand += uint64(cand)
	c.probeScan += uint64(len(c.trs))
	if c.probes < probeSends {
		return
	}
	c.adaptive = false
	pruned := c.probeScan - c.probeCand
	if pruned <= uint64(c.probes*len(c.grid.mobile)) {
		c.useIndex = false
	}
}

// inRange appends r to out if a transmission by tr from src reaches it. A
// down receiver on the sender's kernel is skipped before its position is
// evaluated (a mobile model's Pos calls are part of the replica's event
// order) — except into a receiver table, which outlives the flag. A
// receiver on another kernel is necessarily static, so the range check
// reads an immutable position.
func (c *Channel) inRange(out []receiver, r, tr *Transceiver, src geo.Point, now sim.Time, memo bool) []receiver {
	if r == tr || (!memo && r.owner == tr.owner && r.down) {
		return out
	}
	dist := c.posAt(r, now).Dist(src)
	if dist > c.params.Range {
		return out
	}
	prop := sim.Duration(0)
	if c.params.PropSpeed > 0 {
		prop = sim.Duration(dist / c.params.PropSpeed)
	}
	return append(out, receiver{r, prop})
}

// applyHalfDuplex marks arr collided when its receiver's own transmission
// overlaps the arrival's start — the half-duplex rule. register applies it
// for transmissions already underway when the arrival begins; finish
// re-applies it for ones that began mid-arrival. One rule, two sampling
// points.
func applyHalfDuplex(r *Transceiver, arr *arrival) {
	if r.txUntil > arr.start {
		arr.collided = true
	}
}

// InRange reports whether transceivers a and b are currently within
// transmission range; used by topology-oracle test helpers.
func (c *Channel) InRange(a, b *Transceiver) bool {
	now := c.kernelFor(a).Now()
	return c.posAt(a, now).Dist(c.posAt(b, now)) <= c.params.Range
}

// Pos returns tr's current position.
func (c *Channel) Pos(tr *Transceiver) geo.Point { return c.posAt(tr, c.kernelFor(tr).Now()) }

// Params returns the channel's physical-layer parameters.
func (c *Channel) Params() Params { return c.params }
