package sim

import "fmt"

// Batch is a set of events that share one callback: each item (at, arg)
// runs fn(arg) at its own time, and the whole set holds one queue entry.
// The radio resolves a transmission's receptions through one: a frame
// reaches every neighbour in range, and one queue entry per transmission
// instead of one per receiver takes most of a replica's events off the
// queue.
//
// A batch changes how events are queued, not which run when. Each item
// takes its sequence number when it is added, exactly as scheduling it as
// its own event would, and its time is computed the same way (now +
// delay). The items are kept in (time, seq) order and the queue entry
// carries the next one's key, so the batch's next item pops exactly where
// its own event would have. When an item has run, the next one becomes the kernel's hot
// entry (Kernel.hot): it runs inline, without touching the queue, while it
// still sorts before the queue head, and goes back into the queue under
// its own key the first time something queued comes first. Whatever drives
// the kernel (Run, Step, a shard pump) sees that entry through peekLive
// like any other, so its bound, Stop, event limit and tie check apply to
// every item. Every item is one event in every count.
//
// A batch is single-use: NewBatch, Add its items, then Schedule. The
// kernel recycles it after its last item has run, so the caller must not
// touch it after Schedule.
type Batch struct {
	k  *Kernel
	fn func(any)
	// items are the batch's events in (at, seq) order; next indexes the
	// first one not yet run.
	items []batchItem
	next  int
	// ev is the batch's one queue entry (ev.batch == the batch); while
	// queued or hot, its (at, seq) is items[next]'s.
	ev     event
	queued bool
}

type batchItem struct {
	at  Time
	seq uint64
	arg any
}

// maxBatchPool bounds the kernel's batch free list the way maxEventPool
// bounds its event free list: a burst of concurrent transmissions does not
// pin its batches for the rest of the run.
const maxBatchPool = 1 << 10

// NewBatch returns an empty batch whose items will run fn, from the
// kernel's free list when it has one.
func (k *Kernel) NewBatch(fn func(any)) *Batch {
	var b *Batch
	if n := len(k.batches); n > 0 {
		b = k.batches[n-1]
		k.batches[n-1] = nil
		k.batches = k.batches[:n-1]
	} else {
		b = &Batch{k: k}
		b.ev.batch = b
	}
	b.fn = fn
	return b
}

// Add schedules fn(arg) after delay as one item of the batch. The item's
// sequence number is taken now, so it orders against every other event
// exactly as an event scheduled at this point would. Hot paths pass a
// callback built once at setup time, so an item allocates no closure
// (boxing a pointer-shaped arg is allocation-free). It panics on a negative
// delay, and on a batch already scheduled.
func (b *Batch) Add(delay Duration, arg any) {
	k := b.k
	if delay < 0 {
		panic(fmt.Sprintf("sim: Batch.Add: %v: delay=%v now=%v", ErrPastEvent, delay, k.now))
	}
	if b.queued {
		panic("sim: Batch.Add on a scheduled batch")
	}
	k.nextSeq++
	it := batchItem{at: k.now + delay, seq: k.nextSeq, arg: arg}
	// Insertion by time: sequence numbers ascend in Add order, so the new
	// item goes after every item at its time or earlier.
	i := len(b.items)
	b.items = append(b.items, it)
	for ; i > 0 && b.items[i-1].at > it.at; i-- {
		b.items[i] = b.items[i-1]
	}
	b.items[i] = it
}

// Schedule hands the batch to the queue under its first item's key. An
// empty batch is released.
func (b *Batch) Schedule() {
	if len(b.items) == 0 {
		b.k.putBatch(b)
		return
	}
	b.queued = true
	b.ev.at, b.ev.seq = b.items[0].at, b.items[0].seq
	b.k.wheel.push(&b.ev)
}

// fireItem runs the batch's next item; the caller has set the clock and
// counted the event. A batch with items left becomes the hot entry before
// the callback runs, so anything the callback schedules is ordered against
// it by peekLive; a finished batch is recycled first, as a fired event is.
func (k *Kernel) fireItem(b *Batch) {
	it := &b.items[b.next]
	arg := it.arg
	it.arg = nil
	b.next++
	fn := b.fn
	if b.next < len(b.items) {
		nx := &b.items[b.next]
		b.ev.at, b.ev.seq = nx.at, nx.seq
		k.hot = &b.ev
	} else {
		k.putBatch(b)
	}
	fn(arg)
}

// putBatch clears b and returns it to the free list unless the list is at
// capacity. Every item's argument was dropped as it ran (or was never
// added), so a recycled batch references nothing it carried.
func (k *Kernel) putBatch(b *Batch) {
	b.fn = nil
	b.items = b.items[:0]
	b.next = 0
	b.queued = false
	b.ev.at, b.ev.seq = 0, 0
	if len(k.batches) >= maxBatchPool {
		return
	}
	k.batches = append(k.batches, b)
}
