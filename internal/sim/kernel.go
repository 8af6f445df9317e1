// Package sim provides the discrete-event simulation kernel that underlies
// the wireless network substrate. It plays the role ns-2's event scheduler
// played in the paper's evaluation: a virtual clock, a priority queue of
// timestamped events, and deterministic tie-breaking so that two runs with
// the same seed produce identical traces.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual simulation time, measured in seconds since the
// start of the run. Virtual time is unrelated to wall-clock time; a custom
// float type (rather than time.Time) keeps the radio/geometry math direct.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Common durations, in seconds.
const (
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
)

// Never is a sentinel time later than any event a simulation can schedule.
const Never Time = Time(math.MaxFloat64)

// String formats the time with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", float64(t)) }

// event is a scheduled callback. Exactly one of fn and fnArg is set, or
// neither on a batch's entry; fnArg carries its argument in arg, so a
// cross-shard message (scheduleMsg) needs no per-message closure.
type event struct {
	at     Time
	seq    uint64 // scheduling order, breaks ties deterministically
	fn     func()
	fnArg  func(any)
	arg    any
	cancel bool
	// tx marks a transmission-capable event of a border node on a sharded
	// kernel (ScheduleFireTx): its timestamp participates in the shard's
	// horizon and its callback is the only place cross-shard messages may be
	// posted from. Never set on unsharded kernels.
	tx bool
	// batch marks a Batch's queue entry (batch.go): at and seq are then its
	// next item's, and fn, fnArg and arg are unused. The entry is part of
	// its Batch and never enters the event free list.
	batch *Batch
}

// eventHeap orders events by (time, sequence). It is a hand-rolled
// binary heap rather than container/heap: the comparison is on the
// kernel's hottest path, and going through container/heap's interface
// costs an uninlinable Less/Swap call per level. (at, seq) is a strict
// total order — seq is unique — so the pop sequence is identical to any
// correct heap's; only the constant factor changes. It is the wheel
// queue's same-bucket run and overflow store (wheel.go).
type eventHeap []*event

// before reports whether a sorts strictly before b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting it up with a hole instead of pairwise swaps.
func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if p.before(ev) {
			break
		}
		q[i] = p
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the minimum event. The vacated tail slot is
// nilled so a fired event's closure and captures never linger in the
// heap's backing array until the next growth.
func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		child := q[c]
		if r := c + 1; r < n && q[r].before(child) {
			c, child = r, q[r]
		}
		if last.before(child) {
			break
		}
		q[i] = child
		i = c
	}
	q[i] = last
	return top
}

// ErrPastEvent names, in the scheduling entry points' panic messages, an
// event scheduled before the current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Kernel is a discrete-event scheduler. The zero value is not usable; use
// NewKernel. Kernel is not safe for concurrent use: a simulation is a
// single-threaded interleaving of events, which is what makes runs
// reproducible.
type Kernel struct {
	now Time
	// wheel is the event queue: a hierarchical timer wheel popping in exact
	// (time, seq) order (wheel.go).
	wheel   *wheelQueue
	nextSeq uint64
	stopped bool
	// hot is the queue entry of the batch whose item ran last, while it has
	// items left and is not back in the queue (batch.go). peekLive returns
	// it while it sorts before the queue head and pushes it back otherwise,
	// so hot, when set, is the earliest pending event.
	hot *event

	// processed counts events executed, for diagnostics.
	processed uint64
	// observer, when set, sees every event Run executes (OnFire).
	observer func(at Time) error

	// pool is a free list of event structs recycled on pop. A simulation
	// schedules millions of short-lived events; recycling them keeps the
	// event loop allocation-free at steady state. It is capped at
	// maxEventPool entries so one burst (a flood wave in a 100k-node field)
	// does not pin peak event memory for the rest of the run.
	pool []*event
	// batches is the Batch free list, capped at maxBatchPool the same way.
	batches []*Batch

	// shard is non-nil when this kernel is one region of a ShardSet; see
	// shard.go. Unsharded kernels leave every shard-related field untouched,
	// keeping the single-kernel path byte-identical to the pre-shard code.
	shard *Shard
	// inTx is true while a tx-flagged event's callback is executing; it is
	// the lookahead-contract gate for ShardSet.Post.
	inTx bool
	// inMsg is true while a cross-shard message event's callback is
	// executing, and inMsgAt is that message's timestamp. Together they
	// spot-check the message-lookahead promise (ShardSet.SetMsgLookahead):
	// a border transmission scheduled directly from a message callback
	// below the promised bound panics. Chains deeper than one event are
	// outside the kernel's sight and remain the caller's proof obligation.
	inMsg   bool
	inMsgAt Time
	// lastLocalAt is the timestamp of the most recent locally scheduled
	// (non-message) event executed. A cross-shard message landing on the
	// same timestamp is an ambiguous tie — the sequential kernel would order
	// the two by global sequence numbers a parallel run cannot reconstruct —
	// so the executor trips ErrShardTie on it (see shard.go).
	lastLocalAt Time
}

// maxEventPool bounds the event free list. 1<<14 structs (~1.5 MB at 96 B
// each) comfortably covers steady-state churn of the densest sweeps while
// letting burst allocations be reclaimed by the collector.
const maxEventPool = 1 << 14

// getEvent returns a zeroed event from the free list (or a fresh one) with
// its timestamp and sequence number assigned.
func (k *Kernel) getEvent(at Time) *event {
	var ev *event
	if n := len(k.pool); n > 0 {
		ev = k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
	} else {
		ev = &event{}
	}
	k.nextSeq++
	ev.at = at
	ev.seq = k.nextSeq
	return ev
}

// putEvent clears ev and returns it to the free list, unless the list is
// already at capacity. The clear is unconditional — even an event the pool
// will not keep must drop its closure and argument (so a fired callback's
// captures become collectible immediately) and its sequence number (so a
// stale TimerHandle to a retired event can never match it again).
func (k *Kernel) putEvent(ev *event) {
	*ev = event{}
	if len(k.pool) >= maxEventPool {
		return
	}
	k.pool = append(k.pool, ev)
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	return &Kernel{lastLocalAt: -1, wheel: newWheelQueue()}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Processed reports the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// OnFire sets the kernel's one observer (nil: none). Run and a shard set's
// Run call fn after every event they execute, with its time; an error ends
// the run with that error, stopping the whole shard set. Step does not
// call it. Shards run their observers concurrently, so one shared by the
// kernels of a set must be safe for concurrent use.
func (k *Kernel) OnFire(fn func(at Time) error) { k.observer = fn }

// ScheduleFire runs fn after delay. The event cannot be cancelled; use
// ScheduleFireHandle for one that may be. It panics on a negative delay: a
// silently dropped event corrupts the simulation (timers stop firing,
// frames never resolve), so scheduling into the past is a programming error
// worth crashing on.
func (k *Kernel) ScheduleFire(delay Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleFire: %v: delay=%v now=%v", ErrPastEvent, delay, k.now))
	}
	ev := k.getEvent(k.now + delay)
	ev.fn = fn
	k.wheel.push(ev)
}

// TimerHandle is a direct reference to a scheduled event — the kernel's
// one cancellation mechanism, which Timer and Ticker build on. Cancelling
// through a handle tombstones the event in place (it is retired when it
// reaches the front of the queue), in O(1). The zero TimerHandle
// references nothing.
//
// A handle stays valid until its event fires; the embedded sequence number
// (unique across a kernel's lifetime, and cleared when the event struct is
// retired) makes cancellation through a stale handle a safe no-op even
// after the free-list pool has recycled the struct for a new event.
type TimerHandle struct {
	ev  *event
	seq uint64
}

// Active reports whether the handle references an event (which may have
// fired or been cancelled since; Kernel.CancelHandle gives the exact
// answer).
func (h TimerHandle) Active() bool { return h.ev != nil }

// ScheduleFireHandle runs fn after delay, like ScheduleFire, and returns a
// handle for O(1) cancellation. It panics on a negative delay.
func (k *Kernel) ScheduleFireHandle(delay Duration, fn func()) TimerHandle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleFireHandle: %v: delay=%v now=%v", ErrPastEvent, delay, k.now))
	}
	ev := k.getEvent(k.now + delay)
	ev.fn = fn
	k.wheel.push(ev)
	return TimerHandle{ev: ev, seq: ev.seq}
}

// CancelHandle tombstones the event h references. It reports false — and
// does nothing — when h is the zero handle, the event already fired, or it
// was already cancelled.
func (k *Kernel) CancelHandle(h TimerHandle) bool {
	if h.ev == nil || h.ev.seq != h.seq || h.ev.cancel {
		return false
	}
	h.ev.cancel = true
	return true
}

// ScheduleFireTx is ScheduleFire for transmission-capable events — the MAC
// uses it for every event whose callback may hand a frame to the radio. On
// an unsharded kernel, or for a node that is not on a shard border, it is
// exactly ScheduleFire. For a border node on a sharded kernel it additionally
// enters the event's timestamp into the shard's border horizon (the earliest
// time this shard could emit cross-shard traffic) and enforces the lookahead
// contract: scheduling a transmission closer than the shard set's lookahead
// would invalidate horizons already promised to neighbor shards, so it
// panics loudly instead of corrupting the parallel run.
func (k *Kernel) ScheduleFireTx(delay Duration, fn func(), border bool) {
	if k.shard == nil || !border {
		k.ScheduleFire(delay, fn)
		return
	}
	if delay < k.shard.set.lookahead {
		panic(fmt.Sprintf("sim: ScheduleFireTx: transmission scheduled %v ahead of %v, below the lookahead bound %v (lookahead contract)",
			delay, k.now, k.shard.set.lookahead))
	}
	if k.inMsg {
		if min := k.inMsgAt + k.shard.set.msgLookahead; k.now+delay < min {
			panic(fmt.Sprintf("sim: ScheduleFireTx: transmission at %v scheduled from a message callback (message at %v), below the promised message lookahead %v (SetMsgLookahead contract)",
				k.now+delay, k.inMsgAt, k.shard.set.msgLookahead))
		}
	}
	ev := k.getEvent(k.now + delay)
	ev.fn = fn
	ev.tx = true
	k.wheel.push(ev)
	k.shard.pushBorder(ev.at)
}

// scheduleMsg enqueues a cross-shard message as an event with an
// externally supplied sequence number (msgSeqBit | source shard | source
// sequence, see shard.go). The high bit makes message events order after
// every locally scheduled event with the same timestamp, and the source
// fields make the merge order independent of goroutine scheduling.
func (k *Kernel) scheduleMsg(at Time, seq uint64, fn func(any), arg any) {
	if at < k.now {
		// The conservative bound guarantees a shard never advances past a
		// message it has yet to receive; arriving here means the lookahead
		// contract was violated upstream.
		panic(fmt.Sprintf("sim: cross-shard message at %v arrived behind the shard clock %v", at, k.now))
	}
	ev := k.getEvent(at)
	ev.seq = seq
	ev.fnArg = fn
	ev.arg = arg
	k.wheel.push(ev)
}

// peekLive returns the next live event without executing it, or nil when
// nothing is pending: the hot batch entry while it sorts before the queue
// head, else the queue head. A hot entry the head comes before goes back
// into the queue under its next item's key. Cancelled events encountered on
// top are retired.
func (k *Kernel) peekLive() *event {
	ev := k.wheel.peek()
	for ev != nil && ev.cancel {
		k.putEvent(k.wheel.pop())
		ev = k.wheel.peek()
	}
	if h := k.hot; h != nil {
		if ev == nil || h.before(ev) {
			return h
		}
		k.hot = nil
		k.wheel.push(h)
	}
	return ev
}

// Stop makes Run return after the currently executing event. On a sharded
// kernel it stops the whole shard set: one region halting while its
// neighbors keep exchanging horizon promises would deadlock them, so Stop
// is an all-or-nothing operation under sharding (see ShardSet.Stop).
func (k *Kernel) Stop() {
	if k.shard != nil {
		k.shard.set.Stop()
		return
	}
	k.stopped = true
}

// Step executes the next pending event — one item, if it belongs to a
// batch — advancing the clock to its timestamp. It reports false when
// nothing is pending.
func (k *Kernel) Step() bool {
	ev := k.peekLive()
	if ev == nil {
		return false
	}
	k.fire(ev)
	return true
}

// fire removes ev, the event peekLive just returned, from the queue (or the
// hot slot) and executes it.
func (k *Kernel) fire(ev *event) {
	if ev == k.hot {
		k.hot = nil
	} else {
		k.wheel.pop()
	}
	k.now = ev.at
	k.processed++
	if b := ev.batch; b != nil {
		k.lastLocalAt = k.now
		k.fireItem(b)
		return
	}
	// Copy the callback out before recycling: the callback itself may
	// schedule new events and reuse this struct.
	fn, fnArg, arg, tx := ev.fn, ev.fnArg, ev.arg, ev.tx
	isMsg := ev.seq >= msgSeqBit
	if !isMsg {
		k.lastLocalAt = k.now
	} else if k.shard != nil {
		k.inMsg = true
		k.inMsgAt = k.now
	}
	k.putEvent(ev)
	if tx {
		// A border transmission fires: retire its horizon entry and open
		// the cross-shard posting window for the callback.
		k.shard.popBorder(k.now)
		k.inTx = true
	}
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
	if tx {
		k.inTx = false
	}
	if isMsg {
		k.inMsg = false
	}
}

// Run executes events until the queue is empty, the clock passes until,
// Stop is called, or the observer (OnFire) returns an error, which Run
// returns. The clock is left at min(until, last event time); if the
// queue drains before until, the clock advances to until so that callers
// measuring elapsed time (e.g. idle energy) see the full window.
func (k *Kernel) Run(until Time) error {
	k.stopped = false
	for !k.stopped {
		next := k.peekLive()
		if next == nil || next.at > until {
			break
		}
		k.fire(next)
		if k.observer != nil {
			if err := k.observer(k.now); err != nil {
				return err
			}
		}
	}
	if k.now < until && until != Never && !k.stopped {
		k.now = until
	}
	return nil
}

// RunAll executes events until the queue is fully drained or Stop is called.
func (k *Kernel) RunAll() error { return k.Run(Never) }
