package radio

// Sharded channel operation: the transceiver population is partitioned into
// vertical stripes of grid-cell columns, each owned by one shard of a
// sim.ShardSet. All state a transmission touches lives with the shard that
// owns the transceiver it belongs to:
//
//   - Sender-side state (txUntil, the sender's own arrivals, tx energy,
//     FramesSent) is touched on the sender's kernel, inside the MAC's
//     tx-flagged event.
//   - Receiver-side state (the receiver's arrival list, collision marks, rx
//     energy, delivery counters) is touched on the receiver's kernel — for
//     same-shard receivers directly during the send, for cross-shard
//     receivers by a message posted at the send instant. Registering remote
//     arrivals at the send instant (not first-bit arrival) matters: carrier
//     sense must see a neighbor's transmission from the moment it starts,
//     exactly as the sequential channel does.
//
// Because the grid's cell edge equals the transmission range, a stripe is
// at least one range wide, so cross-shard traffic only ever targets the two
// adjacent stripes — matching the ShardSet's neighbor topology — and every
// node that can hear across a boundary is within one range of it (a border
// node). Only border nodes' MAC events are tx-flagged, so interior nodes
// pay nothing for sharding.
//
// The sequential full-scan and mark-scan paths cost O(N) per send; at 10k+
// nodes that scan dominates the run. The sharded path instead collects the
// 3×3 cell neighborhood's members and sorts them (O(K log K) for K
// candidates), visiting receivers in the same ascending-ID order as the
// sequential paths — which is what keeps per-receiver event sequences, and
// therefore results, identical.

import (
	"fmt"
	"math"
	"slices"

	"innercircle/internal/geo"
	"innercircle/internal/sim"
)

// chanShard is one shard's slice of the channel: its kernel, its counters,
// its arrival free list, and its callback closures (built once, so the hot
// path allocates no per-event closures).
type chanShard struct {
	k          *sim.Kernel
	idx        int
	stats      Stats
	arrPool    []*arrival
	finishFn   func(any)
	registerFn func(any)
	cand       []int32
}

// remoteArrival carries one cross-shard transmission registration. It is
// immutable after posting: the sender fills it, the receiving shard reads
// it.
type remoteArrival struct {
	frame Frame
	from  ID
	to    *Transceiver
	start sim.Time
	end   sim.Time
	air   sim.Duration
}

// NewChannelSharded returns a channel whose transceivers are partitioned
// across the kernels of set. ownerOf maps a (static) position to its home
// shard index and whether it lies within one transmission range of a stripe
// boundary. The spatial index is always used (no adaptive probe: the
// sharded send path is built around cell-neighborhood iteration).
func NewChannelSharded(set *sim.ShardSet, params Params, ownerOf func(geo.Point) (shard int, border bool)) *Channel {
	if params.Range <= 0 {
		panic("radio: NewChannelSharded requires a positive transmission range")
	}
	c := NewChannel(set.Kernel(0), params)
	c.adaptive = false
	c.set = set
	c.ownerOf = ownerOf
	c.shardCtx = make([]*chanShard, set.Shards())
	for i := range c.shardCtx {
		sc := &chanShard{k: set.Kernel(i), idx: i}
		sc.finishFn = func(x any) {
			arr := x.(*arrival)
			c.finishSharded(sc, arr.to, arr)
		}
		sc.registerFn = func(x any) {
			c.register(sc, x.(*remoteArrival))
		}
		c.shardCtx[i] = sc
	}
	return c
}

// Sharded reports whether the channel runs partitioned across a shard set.
func (c *Channel) Sharded() bool { return c.shardCtx != nil }

// Border reports whether the transceiver sits within one transmission range
// of a stripe boundary on a sharded channel. Border nodes are the only ones
// whose transmissions can cross shards, so their MAC events must be
// tx-flagged (mac.MarkBorder).
func (t *Transceiver) Border() bool { return t.border }

// kernelFor returns the kernel that owns tr's events: its home shard's on a
// sharded channel, the channel's single kernel otherwise.
func (c *Channel) kernelFor(tr *Transceiver) *sim.Kernel {
	if c.shardCtx != nil {
		return c.shardCtx[tr.owner].k
	}
	return c.k
}

// attachSharded pins a new transceiver to its home shard. Sharding requires
// static placements: a mobile model's position evolves internal state that
// cannot be read across shards (and a node migrating between stripes would
// need ownership handoff), so mobile topologies run unsharded.
func (c *Channel) attachSharded(tr *Transceiver) {
	if !tr.static {
		panic(fmt.Sprintf("radio: transceiver %d is mobile; sharded channels require static placements", tr.id))
	}
	shard, border := c.ownerOf(tr.cachedPos)
	if shard < 0 || shard >= len(c.shardCtx) {
		panic(fmt.Sprintf("radio: transceiver %d mapped to shard %d of %d", tr.id, shard, len(c.shardCtx)))
	}
	tr.owner = int32(shard)
	tr.border = border
}

// candidates collects the members of the 3×3 cell neighborhood around src
// in ascending transceiver ID — the sequential paths' visit order. The
// grid's cells are immutable during a sharded run (every transceiver is
// static and binned at Attach), so concurrent reads from all shards are
// safe. The returned slice is the shard's scratch buffer.
func (sc *chanShard) candidates(g *gridIndex, src geo.Point) []int32 {
	out := sc.cand[:0]
	cx := int32(math.Floor(src.X * g.inv))
	cy := int32(math.Floor(src.Y * g.inv))
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			out = append(out, g.cells[g.keyAt(cx+dx, cy+dy)]...)
		}
	}
	slices.Sort(out)
	sc.cand = out
	return out
}

// sendSharded is Send on a sharded channel: sender-side bookkeeping on the
// sender's shard, then per-receiver registration — direct for same-shard
// receivers, posted at the send instant for cross-shard ones.
func (c *Channel) sendSharded(tr *Transceiver, f Frame) error {
	sc := c.shardCtx[tr.owner]
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
	src := tr.cachedPos
	for _, i := range sc.candidates(c.grid, src) {
		c.propagateSharded(sc, c.trs[i], tr, f, src, now, d)
	}
	return nil
}

// propagateSharded registers frame f (sent by tr from src) at receiver r.
// The in-range check runs sender-side on immutable positions; everything
// the registration mutates belongs to the receiver's shard.
func (c *Channel) propagateSharded(sc *chanShard, r, tr *Transceiver, f Frame, src geo.Point, now sim.Time, d sim.Duration) {
	if r == tr {
		return
	}
	dist := r.cachedPos.Dist(src)
	if dist > c.params.Range {
		return
	}
	prop := sim.Duration(0)
	if c.params.PropSpeed > 0 {
		prop = sim.Duration(dist / c.params.PropSpeed)
	}
	if r.owner == tr.owner {
		if r.down {
			return
		}
		arr := sc.newArrival()
		arr.frame, arr.from, arr.to = f, tr.id, r
		arr.start, arr.end = now+prop, now+prop+d
		c.registerArrival(sc, r, arr, d)
		return
	}
	// Cross-shard: the receiving shard applies the registration at the send
	// instant. Posting is only legal inside a tx-flagged event, which the
	// border geometry guarantees this is (a sender in range of another
	// stripe is in range of the boundary, hence border-marked).
	rc := c.shardCtx[r.owner]
	c.set.Post(sc.k, int(r.owner), now, rc.registerFn, &remoteArrival{
		frame: f, from: tr.id, to: r,
		start: now + prop, end: now + prop + d, air: d,
	})
}

// register applies a cross-shard registration on the receiver's shard.
func (c *Channel) register(rc *chanShard, m *remoteArrival) {
	r := m.to
	if r.down {
		return
	}
	arr := rc.newArrival()
	arr.frame, arr.from, arr.to = m.frame, m.from, r
	arr.start, arr.end = m.start, m.end
	c.registerArrival(rc, r, arr, m.air)
}

// registerArrival is the receiver-side half of a transmission, identical in
// effect to the sequential propagate: collision marking, the in-flight
// list, rx energy, and the resolution event, all on r's home shard.
func (c *Channel) registerArrival(rc *chanShard, r *Transceiver, arr *arrival, air sim.Duration) {
	applyHalfDuplex(r, arr)
	for _, other := range r.arrivals {
		if other.end > arr.start && other.start < arr.end {
			other.collided = true
			arr.collided = true
		}
	}
	r.arrivals = append(r.arrivals, arr)
	if r.meter != nil {
		r.meter.AddRx(air)
	}
	rc.k.ScheduleFireArg(arr.end-rc.k.Now(), rc.finishFn, arr)
}

// newArrival returns a zeroed arrival from the shard's free list.
func (sc *chanShard) newArrival() *arrival {
	if n := len(sc.arrPool); n > 0 {
		arr := sc.arrPool[n-1]
		sc.arrPool[n-1] = nil
		sc.arrPool = sc.arrPool[:n-1]
		return arr
	}
	return &arrival{}
}

// finishSharded resolves one arrival at receiver r on r's home shard;
// the sharded counterpart of finish.
func (c *Channel) finishSharded(sc *chanShard, r *Transceiver, arr *arrival) {
	for i, a := range r.arrivals {
		if a == arr {
			last := len(r.arrivals) - 1
			r.arrivals[i] = r.arrivals[last]
			r.arrivals[last] = nil
			r.arrivals = r.arrivals[:last]
			break
		}
	}
	applyHalfDuplex(r, arr)
	frame, from, collided := arr.frame, arr.from, arr.collided
	*arr = arrival{}
	sc.arrPool = append(sc.arrPool, arr)
	if collided {
		sc.stats.FramesCollided++
		return
	}
	if r.down {
		return
	}
	sc.stats.FramesDelivered++
	if r.recv != nil {
		r.recv(frame, from)
	}
}

// MergeShardStats folds the per-shard counters into Channel.Stats. Call it
// after the shard set has finished running (it reads state owned by every
// shard); harvest code then sees whole-channel totals exactly as in a
// sequential run.
func (c *Channel) MergeShardStats() {
	if c.shardCtx == nil {
		return
	}
	total := Stats{}
	for _, sc := range c.shardCtx {
		total.FramesSent += sc.stats.FramesSent
		total.FramesDelivered += sc.stats.FramesDelivered
		total.FramesCollided += sc.stats.FramesCollided
	}
	c.Stats = total
}
