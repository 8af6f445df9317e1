package radio

// Every channel runs on chanShards: one kernel's slice of the channel. A
// single-kernel channel (NewChannel) is the one-shard case of the code
// below — every receiver is local, nothing is ever posted. On a sharded
// channel (NewChannelSharded) the transceiver population is partitioned
// into vertical stripes of grid-cell columns, each owned by one shard of a
// sim.ShardSet. All state a transmission touches lives with the shard that
// owns the transceiver it belongs to:
//
//   - Sender-side state (txUntil, the sender's own arrivals, tx energy,
//     FramesSent) is touched on the sender's kernel, inside the MAC's
//     tx-flagged event (Channel.Send).
//   - Receiver-side state (the receiver's arrival list, collision marks, rx
//     energy, delivery counters) is touched on the receiver's kernel
//     (register, finish) — for same-shard receivers directly during the
//     send, for cross-shard receivers by a message posted at the send
//     instant (Channel.Send).
//
// Because the grid's cell edge equals the transmission range, a stripe is
// at least one range wide, so cross-shard traffic only ever targets the two
// adjacent stripes — matching the ShardSet's neighbor topology — and every
// node that can hear across a boundary is within one range of it (a border
// node). Only border nodes' MAC events are tx-flagged, so interior nodes
// pay nothing for sharding.

import (
	"fmt"
	"slices"

	"innercircle/internal/geo"
	"innercircle/internal/sim"
)

// chanShard is one kernel's slice of the channel: its kernel, its counters,
// its arrival free list, the scratch buffers a receiver-table build fills
// (cand, rx), and its callback closures (built once, so the hot path
// allocates no per-event closures). finishFn is the callback of every
// reception batch. tableBuilds counts receiver tables built by this shard's
// senders, for the tests.
type chanShard struct {
	k           *sim.Kernel
	stats       *Stats
	arrPool     []*arrival
	finishFn    func(any)
	registerFn  func(any)
	cand        []int32
	rx          []receiver
	tableBuilds uint64
}

func newChanShard(k *sim.Kernel, stats *Stats) *chanShard {
	sc := &chanShard{k: k, stats: stats}
	sc.finishFn = func(x any) { sc.finish(x.(*arrival)) }
	sc.registerFn = func(x any) {
		// A down receiver on another kernel is skipped here, on the kernel
		// that owns the flag, not by the sender. A live one's arrival
		// resolves as a batch of one, unless the receiver overhears it.
		if m := x.(*remoteArrival); !m.to.down {
			if arr := sc.register(m.to, m.frame, m.from, m.start, m.air); arr != nil {
				b := sc.k.NewBatch(sc.finishFn)
				b.Add(arr.end-sc.k.Now(), arr)
				b.Schedule()
			}
		}
	}
	return sc
}

// remoteArrival carries one cross-shard transmission registration. It is
// immutable after posting: the sender fills it, the receiving shard reads
// it.
type remoteArrival struct {
	frame Frame
	from  ID
	to    *Transceiver
	start sim.Time
	air   sim.Duration
}

// NewChannelSharded returns a channel whose transceivers are partitioned
// across the kernels of set. ownerOf maps a (static) position to its home
// shard index and whether it lies within one transmission range of a stripe
// boundary.
func NewChannelSharded(set *sim.ShardSet, params Params, ownerOf func(geo.Point) (shard int, border bool)) *Channel {
	if params.Range <= 0 {
		panic("radio: NewChannelSharded requires a positive transmission range")
	}
	c := &Channel{
		params:   params,
		farSq:    farBound(params.Range),
		grid:     newGridIndex(params.Range),
		useIndex: true,
		set:      set,
		ownerOf:  ownerOf,
		shards:   make([]*chanShard, set.Shards()),
	}
	for i := range c.shards {
		c.shards[i] = newChanShard(set.Kernel(i), new(Stats))
	}
	return c
}

// Sharded reports whether the channel runs partitioned across a shard set.
func (c *Channel) Sharded() bool { return c.set != nil }

// Border reports whether the transceiver sits within one transmission range
// of a stripe boundary on a sharded channel. Border nodes are the only ones
// whose transmissions can cross shards, so their MAC events must be
// tx-flagged (mac.MarkBorder).
func (t *Transceiver) Border() bool { return t.border }

// kernelFor returns the kernel that owns tr's events: its home shard's.
func (c *Channel) kernelFor(tr *Transceiver) *sim.Kernel { return c.shards[tr.owner].k }

// attachSharded pins a new transceiver to its home shard. Sharding requires
// static placements: a mobile model's position evolves internal state that
// cannot be read across shards (and a node migrating between stripes would
// need ownership handoff), so mobile topologies run unsharded.
func (c *Channel) attachSharded(tr *Transceiver) {
	if !tr.static {
		panic(fmt.Sprintf("radio: transceiver %d is mobile; sharded channels require static placements", tr.id))
	}
	shard, border := c.ownerOf(tr.cachedPos)
	if shard < 0 || shard >= len(c.shards) {
		panic(fmt.Sprintf("radio: transceiver %d mapped to shard %d of %d", tr.id, shard, len(c.shards)))
	}
	tr.owner = int32(shard)
	tr.border = border
}

// candidates returns, in ascending transceiver ID — the order Send must
// visit receivers in — a superset of the transceivers within reach of src:
// every mover, and the static members of the grid cells that the square of
// half-edge reach around src touches (3×3 for reach = Range), at
// O(K log K) for K candidates instead of a scan's O(N). The returned slice
// is the shard's scratch buffer.
func (sc *chanShard) candidates(c *Channel, src geo.Point, reach float64) []int32 {
	g := c.grid
	out := sc.cand[:0]
	x0, y0 := g.cellOf(geo.Point{X: src.X - reach, Y: src.Y - reach})
	x1, y1 := g.cellOf(geo.Point{X: src.X + reach, Y: src.Y + reach})
	// int64 counters: where a platform converts a coordinate too large for
	// a cell number to the largest one, an int32 counter could never pass it.
	for cx := int64(x0); cx <= int64(x1); cx++ {
		for cy := int64(y0); cy <= int64(y1); cy++ {
			out = append(out, g.cells[g.keyAt(int32(cx), int32(cy))]...)
		}
	}
	for _, m := range c.movers {
		out = append(out, int32(m.id))
	}
	slices.Sort(out)
	sc.cand = out
	return out
}

// register is the receiver-side half of a transmission, run on r's home
// shard: collision marking, the in-flight list and rx energy. It returns
// the arrival, which the caller adds to the transmission's reception batch
// on this shard, or nil when r overhears the frame: that arrival is in the
// list for the checks and resolves nowhere.
func (sc *chanShard) register(r *Transceiver, f Frame, from ID, start sim.Time, air sim.Duration) *arrival {
	sc.prune(r, nil)
	arr := sc.newArrival()
	arr.start, arr.end = start, start+air
	if r.overhears(f.Header) {
		arr.overheard = true
		sc.stats.FramesOverheard++
	} else {
		arr.frame, arr.from, arr.to = f, from, r
	}
	// Receiver transmitting when the arrival starts corrupts it.
	applyHalfDuplex(r, arr)
	// Overlap with any other in-flight arrival corrupts both.
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
	if arr.overheard {
		return nil
	}
	return arr
}

// prune drops from r's in-flight list, and recycles, every overheard
// arrival that has ended, up to and including done: with done nil it walks
// the whole list (register), otherwise it removes done and stops there
// (finish). Dropping ended overheard arrivals lazily, whenever the list is
// walked, is exact: every check on the list (register's overlap, Send's
// half-duplex, Busy) asks whether an arrival's end lies after some t no
// earlier than now, and an arrival that has ended has end <= now. List order
// carries no meaning (those checks are symmetric), so removal swaps the
// last entry in.
func (sc *chanShard) prune(r *Transceiver, done *arrival) {
	now := sc.k.Now()
	for i := 0; i < len(r.arrivals); {
		a := r.arrivals[i]
		if a != done && !(a.overheard && a.end <= now) {
			i++
			continue
		}
		last := len(r.arrivals) - 1
		r.arrivals[i] = r.arrivals[last]
		r.arrivals[last] = nil
		r.arrivals = r.arrivals[:last]
		if a == done {
			return
		}
		sc.freeArrival(a)
	}
}

// maxArrivalPool bounds a shard's arrival free list, as the kernel bounds
// its event free list: a contention burst does not pin its arrivals for the
// rest of the run.
const maxArrivalPool = 1 << 14

// newArrival returns a zeroed arrival from the shard's free list (or a
// fresh one).
func (sc *chanShard) newArrival() *arrival {
	if n := len(sc.arrPool); n > 0 {
		arr := sc.arrPool[n-1]
		sc.arrPool[n-1] = nil
		sc.arrPool = sc.arrPool[:n-1]
		return arr
	}
	return &arrival{}
}

// freeArrival zeroes arr and returns it to the shard's free list unless the
// list is at its cap.
func (sc *chanShard) freeArrival(arr *arrival) {
	*arr = arrival{}
	if len(sc.arrPool) < maxArrivalPool {
		sc.arrPool = append(sc.arrPool, arr)
	}
}

// finish resolves one arrival at its receiver, on the receiver's home shard.
func (sc *chanShard) finish(arr *arrival) {
	r := arr.to
	sc.prune(r, arr)
	// The receiver may have started transmitting mid-arrival.
	applyHalfDuplex(r, arr)
	frame, from, collided := arr.frame, arr.from, arr.collided
	sc.freeArrival(arr)
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
// single-kernel run, whose one shard counts into Channel.Stats directly.
func (c *Channel) MergeShardStats() {
	if c.set == nil {
		return
	}
	total := Stats{}
	for _, sc := range c.shards {
		total.FramesSent += sc.stats.FramesSent
		total.FramesDelivered += sc.stats.FramesDelivered
		total.FramesCollided += sc.stats.FramesCollided
		total.FramesOverheard += sc.stats.FramesOverheard
	}
	c.Stats = total
}
