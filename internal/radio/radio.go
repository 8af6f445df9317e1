// Package radio models the wireless physical layer: unit-disk propagation
// with a fixed transmission range, transmission timing derived from frame
// size and bitrate, half-duplex transceivers, and collisions when
// transmissions overlap at a receiver. It corresponds to the 802.11
// physical layer configuration of the paper's ns-2 experiments (250 m range
// for the ad hoc scenario, 40 m for the sensor scenario, 2 Mb/s).
package radio

import (
	"errors"
	"math"

	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// Params configure the physical layer.
type Params struct {
	// Range is the transmission (and carrier-sense) radius in metres.
	Range float64
	// Bitrate is the channel rate in bits per second.
	Bitrate float64
	// PropSpeed is the signal propagation speed in m/s.
	PropSpeed float64
}

// Default80211 returns the parameters used by the paper's ad hoc experiment.
func Default80211() Params {
	return Params{Range: 250, Bitrate: 2e6, PropSpeed: 3e8}
}

// Frame is the unit of transmission on the channel. Bytes drives airtime;
// Header and Payload are opaque to the physical layer. A Frame is a value:
// every receiver gets its own copy of the header and shares the sender's
// payload, which nobody may mutate once sent.
type Frame struct {
	Header  Header
	Bytes   int
	Payload any
}

// Header is the link-layer header a frame carries by value, so that putting
// a frame on the air boxes nothing. The MAC above fills and reads it; a frame
// sent with the zero Header is not addressed to any MAC.
//
// The physical layer reads one thing from it: whom the frame is for. A
// frame whose Kind is nonzero is addressed to the transceiver whose ID is
// Dst, or to every receiver when Dst is negative (Broadcast); an addressed
// transceiver (Transceiver.Addressed) overhears a frame addressed to
// another. A frame whose Kind is zero is unaddressed and reaches everyone.
//
// Hops is the network layer's per-hop count (link.Env.Hops), carried here
// so that a forwarded message crosses the air unchanged; the radio never
// reads it. It is an int, so whatever value a sender sets arrives exactly.
type Header struct {
	Kind     uint8
	Src, Dst int32
	Seq      uint32
	Hops     int
}

// Broadcast is the Header.Dst of a frame addressed to every receiver.
const Broadcast int32 = -1

// ErrTxBusy is returned when a transceiver is asked to transmit while a
// previous transmission is still on the air.
var ErrTxBusy = errors.New("radio: transceiver already transmitting")

// ID identifies a transceiver on its channel.
type ID int

// arrival is a signal in flight toward one receiver: one item of the
// kernel batch that resolves its transmission on the receiver's shard.
// Arrivals are recycled through that shard's free list when they resolve;
// to points back at the receiver so the batch's one callback serves every
// arrival.
//
// An overheard arrival (a frame addressed to another transceiver) is in no
// batch and never resolves: it sits in the receiver's in-flight list for
// the collision and carrier-sense checks, holding only its times and its
// collision bit, and is dropped from the list once it has ended (see
// chanShard.prune).
type arrival struct {
	frame     Frame
	from      ID
	to        *Transceiver
	start     sim.Time
	end       sim.Time
	collided  bool
	overheard bool
}

// receiver is one entry of a receiver table (see Channel.receivers): a
// destination a transmission may reach and the propagation delay to it. A
// pair of static transceivers is measured when the table is built, kept only
// if in range, and prop is exact. Where either end can move the entry is a
// candidate, prop is measureAtSend, and every Send measures the pair.
type receiver struct {
	r    *Transceiver
	prop sim.Duration
}

const measureAtSend sim.Duration = -1

// Transceiver is one radio attached to a Channel.
type Transceiver struct {
	id       ID
	pos      mobility.Model
	meter    *energy.Meter
	recv     func(Frame, ID)
	txUntil  sim.Time
	arrivals []*arrival
	down     bool
	// addressed makes the transceiver overhear frames addressed to another
	// (see Addressed).
	addressed bool

	// Position cache: static transceivers hold their fixed position in
	// cachedPos forever; movers cache the last Pos evaluation so every query
	// at the same virtual time reuses it. speed bounds how fast the position
	// changes (mobility.Model's MaxSpeed): zero for a static transceiver,
	// +Inf for a model that gives no bound.
	static    bool
	speed     float64
	cachedPos geo.Point
	cachedAt  sim.Time
	hasCache  bool

	// Receiver table (see Channel.receivers): every transceiver that can be
	// in range of this one's Send while rxGen equals the channel's attach
	// generation and the clock has not passed rxUntil. Read and written only
	// on this transceiver's own kernel.
	rx      []receiver
	rxGen   uint32
	rxUntil sim.Time

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

// Addressed makes t overhear every frame whose Header addresses another
// transceiver (see Header): such a frame still occupies t's channel — it
// collides with and is corrupted by t's other arrivals and transmissions,
// keeps Busy true and is charged as receive energy — but is never handed
// to t's receive callback and costs no kernel event. A MAC whose address is
// its transceiver's ID calls it once, after Attach. A transceiver that does
// not is promiscuous: every frame it decodes reaches its callback.
func (t *Transceiver) Addressed() { t.addressed = true }

// overhears reports whether t hears a frame with header h without
// receiving it: t is addressed and h names another transceiver.
func (t *Transceiver) overhears(h Header) bool {
	return t.addressed && h.Kind != 0 && h.Dst >= 0 && ID(h.Dst) != t.id
}

// Channel is the shared medium connecting a set of transceivers. It is
// driven by the simulation kernel(s) of its shards; a channel built by
// NewChannel has exactly one and is not safe for concurrent use.
type Channel struct {
	params Params
	trs    []*Transceiver
	// attachGen counts Attach (and SetIndexEnabled) calls; a receiver table
	// built at an earlier generation is stale.
	attachGen uint32

	// shards holds one chanShard per kernel the channel runs on (see
	// shard.go): one for NewChannel, one per stripe for NewChannelSharded,
	// where set carries cross-kernel registrations and ownerOf maps a static
	// position to its home shard. A transceiver's owner indexes shards.
	shards  []*chanShard
	set     *sim.ShardSet
	ownerOf func(geo.Point) (shard int, border bool)

	// What receiver tables are built from: grid indexes the static
	// transceivers (nil when Range <= 0), movers lists the others in
	// ascending ID, and topSpeed is the largest finite speed bound among
	// them, which sets how long a table stays valid (horizon). useIndex is
	// false once SetIndexEnabled(false) has withdrawn every bound, which is
	// the tests' brute-force reference.
	grid     *gridIndex
	movers   []*Transceiver
	topSpeed float64
	useIndex bool

	// farSq is farBound(params.Range): reach rejects a receiver whose
	// squared distance exceeds it without measuring the distance.
	farSq float64

	// Stats counts physical-layer activity for the whole channel: live on a
	// single-kernel channel, folded from the per-shard counters by
	// MergeShardStats on a sharded one.
	Stats Stats
}

// Stats aggregates channel counters. FramesDelivered and FramesCollided
// count resolved arrivals only: an overheard arrival never resolves, is
// counted in FramesOverheard when it is registered, and in neither of them.
type Stats struct {
	FramesSent      uint64
	FramesDelivered uint64
	FramesCollided  uint64
	FramesOverheard uint64
}

// tableSlack is the fraction of Range by which the fastest pair on the
// channel may approach each other during one table's life. A table holds
// everything within Range plus that much, so a larger fraction means fewer
// rebuilds and more entries to measure per send.
const tableSlack = 0.25

// NewChannel returns an empty channel on kernel k.
func NewChannel(k *sim.Kernel, params Params) *Channel {
	c := &Channel{params: params, farSq: farBound(params.Range)}
	c.shards = []*chanShard{newChanShard(k, &c.Stats)}
	if params.Range > 0 {
		c.grid = newGridIndex(params.Range)
		c.useIndex = true
	}
	return c
}

// SetIndexEnabled(false) makes the channel treat every mobility model as
// unbounded: every table holds every transceiver and each Send measures them
// all, the brute-force reference that equivalence tests compare the speed
// bounds against in-process. SetIndexEnabled(true) restores the bounds.
// Either way the tables built so far are stale. Toggling is valid at any
// point on a single-kernel channel (on a sharded one only before the run:
// its shards read the choice concurrently).
func (c *Channel) SetIndexEnabled(on bool) {
	c.useIndex = on && c.grid != nil
	c.attachGen++
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
	} else {
		tr.speed = math.Inf(1)
		if b, ok := pos.(interface{ MaxSpeed() float64 }); ok {
			if v := b.MaxSpeed(); v >= 0 && !math.IsInf(v, 1) {
				tr.speed = v
				c.topSpeed = max(c.topSpeed, v)
			}
		}
		c.movers = append(c.movers, tr)
	}
	c.trs = append(c.trs, tr)
	c.attachGen++
	if tr.static && c.grid != nil {
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
// in-range receiver resolves when the frame's airtime ends, except at a
// receiver that overhears it (Transceiver.Addressed): there the frame is
// registered, and so counts for collisions, carrier sense and energy, but
// nothing resolves. Send does not carrier-sense; that is the MAC's job.
// Sender-side state is touched here, on the sender's kernel; everything a
// reception mutates belongs to the receiver's shard.
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
	src := c.posAt(tr, now)
	// The same-shard receptions resolve from one kernel batch (sim.Batch),
	// opened at the first of them; an overheard arrival takes no item.
	var batch *sim.Batch
	for _, e := range c.receivers(sc, tr, src, now) {
		r, prop := e.r, e.prop
		if r.owner == tr.owner && r.down {
			continue
		}
		if prop == measureAtSend {
			var ok bool
			if prop, ok = c.reach(r, src, now); !ok {
				continue
			}
		}
		if r.owner != tr.owner {
			c.set.Post(sc.k, int(r.owner), now, c.shards[r.owner].registerFn, &remoteArrival{
				frame: f, from: tr.id, to: r, start: now + prop, air: d,
			})
		} else if arr := sc.register(r, f, tr.id, now+prop, d); arr != nil {
			if batch == nil {
				batch = sc.k.NewBatch(sc.finishFn)
			}
			batch.Add(arr.end-now, arr)
		}
	}
	if batch != nil {
		batch.Schedule()
	}
	return nil
}

// receivers returns tr's receiver table: in ascending ID, every transceiver
// a transmission by tr from src at now can reach. There is one rule. A table
// is valid until something could have moved into range: it holds every
// transceiver within Range plus what the pair's speed bounds let them close
// in one horizon, and expires a horizon after it was built or when another
// transceiver attaches. Nothing closes a gap between two static
// transceivers, so on a channel where nothing moves the horizon is infinite
// and a table is a constant of the deployment, as are the static entries of
// a static sender's table anywhere. A transceiver without a bound is in
// every table, and the table of a sender without one holds everybody, for
// good.
//
// What varies faster than a table — whether a receiver is down, and where a
// mover is now — is read per send; the exact range test runs on every pair
// that can move, so a table changes how many transceivers Send measures and
// never which ones it reaches.
func (c *Channel) receivers(sc *chanShard, tr *Transceiver, src geo.Point, now sim.Time) []receiver {
	if tr.rxGen == c.attachGen && now <= tr.rxUntil {
		return tr.rx
	}
	out, until := sc.rx[:0], sim.Time(math.Inf(1))
	if !c.useIndex || math.IsInf(tr.speed, 1) {
		for _, r := range c.trs {
			if r != tr {
				out = append(out, receiver{r, measureAtSend})
			}
		}
	} else {
		// Expiry comes a relative 1e-9 early, so that rounding in a model's
		// interpolation cannot carry a node past its bound in a table's life.
		until = now + sim.Duration(c.horizon()*(1-1e-9))
		for _, i := range sc.candidates(c, src, c.params.Range+c.closing(tr.speed)) {
			r := c.trs[i]
			switch {
			case r == tr:
			case r.static && tr.static:
				if prop, ok := c.reach(r, src, now); ok {
					out = append(out, receiver{r, prop})
				}
			case math.IsInf(r.speed, 1) || c.posAt(r, now).Dist(src) <= c.params.Range+c.closing(tr.speed+r.speed):
				out = append(out, receiver{r, measureAtSend})
			}
		}
	}
	sc.rx = out
	sc.tableBuilds++
	// The copy sizes a new table exactly and reuses a rebuilt one's storage.
	tr.rx, tr.rxGen, tr.rxUntil = append(tr.rx[:0], out...), c.attachGen, until
	return tr.rx
}

// horizon is how long a receiver table stays valid: the time two
// transceivers at the channel's top speed need to close tableSlack·Range,
// infinite while nothing (with a bound) moves.
func (c *Channel) horizon() sim.Duration {
	return sim.Duration(tableSlack * c.params.Range / (2 * c.topSpeed))
}

// closing returns how far two transceivers whose speed bounds sum to v can
// approach each other within one horizon: at most tableSlack·Range.
func (c *Channel) closing(v float64) float64 {
	if v > 0 {
		return v * float64(c.horizon())
	}
	return 0 // not v·horizon, which is 0·Inf while nothing moves
}

// reach returns the propagation delay of a transmission from src to r at
// now; ok is false if r is out of range. A receiver on another kernel is
// necessarily static, so this reads an immutable position. A receiver past
// the squared-distance bound is out of range without a square root; the
// others take the exact distance, which also sets the delay.
func (c *Channel) reach(r *Transceiver, src geo.Point, now sim.Time) (prop sim.Duration, ok bool) {
	pos := c.posAt(r, now)
	if beyond(pos, src, c.farSq) {
		return 0, false
	}
	dist := pos.Dist(src)
	if dist > c.params.Range {
		return 0, false
	}
	if c.params.PropSpeed > 0 {
		prop = sim.Duration(dist / c.params.PropSpeed)
	}
	return prop, true
}

// farBound is the squared distance past which a pair is out of range rng
// by Dist as well: rng² widened by a relative 1e-9, far more than the
// rounding of the two squares, their sum and hypot can take from it. A
// range below 1e-100, or NaN, gets +Inf, so that no pair is rejected
// there: near underflow the squares round too coarsely to decide.
func farBound(rng float64) float64 {
	if !(rng >= 1e-100) {
		return math.Inf(1)
	}
	return float64(rng*rng) * (1 + 1e-9)
}

// beyond reports whether the squared distance between a and b exceeds far,
// a farBound. The products are rounded where they are formed, so no port
// fuses them into the sum.
func beyond(a, b geo.Point, far float64) bool {
	dx, dy := a.X-b.X, a.Y-b.Y
	return float64(dx*dx)+float64(dy*dy) > far
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
