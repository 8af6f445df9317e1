package sim

// Conservative parallel simulation: the world is partitioned into S regions
// (shards), each with its own Kernel, synchronized Chandy–Misra–Bryant
// style. A shard may only execute events strictly earlier than the minimum
// horizon its neighbor shards have promised; horizons are derived from the
// physical lookahead of the radio model — a transmission can only be
// scheduled at least `lookahead` (the minimum MAC turnaround, min(SIFS,
// DIFS)) after the event that decides to send it. Cross-shard transmissions
// become timestamped messages posted into the receiving shard's inbox, and
// horizon updates double as null messages: a shard with nothing to send
// still publishes how far its clock could possibly produce traffic, which
// is what keeps the ring of shards deadlock-free.
//
// Two lookaheads drive the horizon algebra:
//
//   - lookahead bounds transmissions caused by locally pending events: any
//     event's callback may schedule a transmission, but never closer than
//     lookahead (ScheduleFireTx enforces it).
//   - msgLookahead (>= lookahead) bounds transmissions caused by messages
//     not yet received. The caller asserts it via SetMsgLookahead: a
//     message's callback chain schedules no transmission earlier than
//     msgLookahead after the message timestamp. For the radio model a
//     message is a frame registration whose only event chain starts when
//     the frame's airtime elapses, so node.Build asserts lookahead +
//     TxDuration(smallest frame). The larger the message lookahead, the
//     fewer null-message rounds it takes an idle cascade of shards to
//     advance each other past a gap.
//
// Determinism contract. Results must be identical at any shard count, so
// every source of nondeterminism is pinned:
//
//   - Message events carry the sequence key msgSeqBit | srcShard<<48 |
//     srcSeq. The event queue's (time, seq) comparator then orders them
//     after all locally scheduled events at the same timestamp, and between
//     themselves by (source shard, source posting order) — both independent
//     of goroutine scheduling.
//   - A shard never executes a message event at a timestamp at which it has
//     itself already executed any locally scheduled event (Kernel.lastLocalAt
//     — a timer, a delivery, not only a transmission): under the sequential
//     kernel the relative order of those two would be decided by global
//     sequence numbers that a parallel run cannot reconstruct, so the run
//     fails with ErrShardTie and the caller re-runs the replica on a single
//     kernel. Ties of this kind need a neighboring stripe's border
//     transmission at the bit-identical float timestamp of a local event —
//     not rare where timers are not jittered: on the benchmark's field_scale
//     replica run on 4 shards (epoch-synchronized sensing, slot-quantized MAC
//     backoff) 18 of 100 seeds trip and rerun. The tripwire makes them safe
//     instead of silently divergent, not cheap.
//   - Per-node RNG streams are split by name from the experiment seed
//     (rng.SplitN), so a node draws the same sequence regardless of which
//     kernel hosts it.
//
// Executor. Run drives the shards on G slots (1 <= G <= S), each slot
// round-robining a contiguous group of shards under the horizon algebra
// above; G = S is classic goroutine-per-shard, and at G = 1 the one slot is
// the calling goroutine. G is Run's argument: the scenario planner sizes it
// from the core tokens it finds spare (see budget.go), capped at
// GOMAXPROCS, and holds them while the replica runs, so concurrent sharded
// replicas divide the machine instead of oversubscribing it. Run itself
// never reads the budget. The slot count only shapes wall-clock behavior:
// every G runs the same loop and produces identical results.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrShardTie reports an ambiguous cross-shard timestamp tie: a message
// event landed on the timestamp of a local event the same shard had already
// executed, so the parallel run cannot reproduce the sequential event
// order. The caller should re-run the replica with a single shard; the
// decision is deterministic, so the same seed and shard count always either
// trip or complete.
var ErrShardTie = errors.New("sim: ambiguous cross-shard timestamp tie")

// msgSeqBit distinguishes cross-shard message events from locally scheduled
// ones in the sequence key; see the package comment above.
const msgSeqBit uint64 = 1 << 63

// msgSrcShift positions the source shard index in the sequence key, leaving
// 48 bits for the per-sender posting sequence and 15 for the shard index.
const msgSrcShift = 48

// pumpBatch bounds how many events a shard executes between horizon
// republishes to its neighbors.
const pumpBatch = 1024

// xmsg is one cross-shard message waiting in a shard's inbox.
type xmsg struct {
	at  Time
	src uint16
	seq uint64
	fn  func(any)
	arg any
}

// ShardUtil is one shard's utilization record for the last Run: how much
// work it executed and how much synchronization it paid. Events and
// NullRepublishes are properties of the partition; Parks and BlockedNs are
// wall-clock diagnostics of the executor and vary run to run. None of them
// feed any simulation result.
type ShardUtil struct {
	// Events counts events executed on this shard's kernel.
	Events uint64
	// NullRepublishes counts horizon publishes from passes that executed
	// no event — the protocol's null messages.
	NullRepublishes uint64
	// Parks counts times the executor slot driving this shard parked on
	// the condition variable waiting for a neighbor. Attributed to the
	// slot's earliest live shard; exact when slots are singletons.
	Parks uint64
	// BlockedNs is wall-clock nanoseconds the slot spent spinning or
	// parked while this shard was its earliest live member.
	BlockedNs int64
}

// Shard is one region's kernel plus its synchronization state.
type Shard struct {
	set *ShardSet
	idx int
	k   *Kernel

	// inbox holds posted messages until the shard drains them into its event
	// queue; mail flags a non-empty inbox so the hot loop can skip the lock.
	inMu    sync.Mutex
	inbox   []xmsg
	scratch []xmsg
	mail    atomic.Bool
	postSeq uint64

	// horizon is the published promise (as float64 bits): this shard will
	// not post any message with a timestamp below it. Monotone by
	// construction.
	horizon atomic.Uint64

	// borderQ is a min-heap of the timestamps of pending tx-flagged events —
	// the exact times at which this shard could emit cross-shard traffic.
	borderQ []Time

	// snap holds the neighbor-horizon snapshot for the current iteration;
	// taking it before draining the inbox is what makes the published
	// horizon safe (see publish).
	snap []Time

	neighbors []*Shard

	// done marks the shard finished for the current Run: no local work at
	// or before the run bound and every neighbor promised past it. done
	// never reverts within a Run.
	done bool

	// util is this shard's utilization record, reset by Run.
	util ShardUtil
}

// Kernel returns the shard's event kernel.
func (sh *Shard) Kernel() *Kernel { return sh.k }

// Index returns the shard's index within its set.
func (sh *Shard) Index() int { return sh.idx }

func (sh *Shard) pushBorder(at Time) {
	q := append(sh.borderQ, at)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	sh.borderQ = q
}

// popBorder retires the earliest border timestamp, which must be the one
// firing now: events execute in non-decreasing time order, so a tx event
// reaching the front of the event queue is also at the front of borderQ.
func (sh *Shard) popBorder(at Time) {
	q := sh.borderQ
	if len(q) == 0 || q[0] != at {
		panic(fmt.Sprintf("sim: border horizon out of step: firing %v, queue head %v", at, q))
	}
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q[l] < q[m] {
			m = l
		}
		if r < n && q[r] < q[m] {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	sh.borderQ = q
}

func (sh *Shard) loadHorizon() Time {
	return Time(math.Float64frombits(sh.horizon.Load()))
}

func (sh *Shard) storeHorizon(t Time) {
	sh.horizon.Store(math.Float64bits(float64(t)))
}

// drain moves inbox messages into the event queue. Encoded sequence keys
// make the resulting queue order independent of the real-time order in which
// senders appended to the inbox.
func (sh *Shard) drain() {
	if !sh.mail.Load() {
		return
	}
	sh.inMu.Lock()
	msgs := sh.inbox
	sh.inbox = sh.scratch[:0]
	sh.mail.Store(false)
	sh.inMu.Unlock()
	for i := range msgs {
		m := &msgs[i]
		sh.k.scheduleMsg(m.at, msgSeqBit|uint64(m.src)<<msgSrcShift|m.seq, m.fn, m.arg)
		msgs[i] = xmsg{}
	}
	sh.scratch = msgs
}

// snapshot records each neighbor's published horizon. It must run before
// drain: a message posted after the snapshot provably carries a timestamp
// no earlier than the snapshotted horizon of its sender (a sender's horizon
// never exceeds its next possible transmission time), which is exactly the
// bound publish folds in.
func (sh *Shard) snapshot() {
	for i, nb := range sh.neighbors {
		sh.snap[i] = nb.loadHorizon()
	}
}

// bound returns the minimum snapshotted neighbor horizon: the time up to
// which it is safe to execute local events (exclusive for message events).
func (sh *Shard) bound() Time {
	b := Never
	for _, t := range sh.snap {
		if t < b {
			b = t
		}
	}
	return b
}

// publish recomputes and publishes this shard's horizon:
//
//	h = min(earliest pending tx event,
//	        next local event + lookahead,
//	        min snapshotted neighbor horizon + msgLookahead)
//
// The first term is exact. The second covers transmissions that pending
// events may yet schedule (always at least lookahead ahead of the event
// that schedules them). The third covers transmissions caused by messages
// this shard has not received yet: any future message arrives no earlier
// than its sender's snapshotted horizon, and by the message-lookahead
// contract its callback chain cannot fire a transmission sooner than
// msgLookahead after its own timestamp. The result is monotone, so the
// stored horizon never retreats.
func (sh *Shard) publish() bool {
	h := Never
	if len(sh.borderQ) > 0 {
		h = sh.borderQ[0]
	}
	la := sh.set.lookahead
	if ev := sh.k.peekLive(); ev != nil {
		if t := ev.at + la; t < h {
			h = t
		}
	}
	mla := sh.set.msgLookahead
	for _, t := range sh.snap {
		if t+mla < h {
			h = t + mla
		}
	}
	if h > sh.loadHorizon() {
		sh.storeHorizon(h)
		sh.set.notify()
		return true
	}
	return false
}

// ShardSet is a partition of one simulation across S kernels. Build the
// set, pin every node's events to its home shard's kernel, then Run.
type ShardSet struct {
	shards       []*Shard
	lookahead    Duration
	msgLookahead Duration

	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int32
	gen     atomic.Uint64

	stopped atomic.Bool
	errMu   sync.Mutex
	err     error
}

// NewShardSet returns n shards with fresh kernels. lookahead is the minimum
// delay between an event executing and the earliest transmission it can
// schedule — for the 802.11-style MAC, min(SIFS, DIFS). It must be positive
// when n > 1: with zero lookahead no shard could ever promise its neighbors
// a horizon ahead of its own clock, and the set would deadlock. The message
// lookahead starts equal to lookahead (always sound); see SetMsgLookahead.
func NewShardSet(n int, lookahead Duration) *ShardSet {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewShardSet: need at least one shard, got %d", n))
	}
	if n > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewShardSet: lookahead must be positive with %d shards, got %v", n, lookahead))
	}
	if n > 1<<(63-msgSrcShift) {
		panic(fmt.Sprintf("sim: NewShardSet: %d shards overflow the message key's source-shard field", n))
	}
	s := &ShardSet{lookahead: lookahead, msgLookahead: lookahead}
	s.cond = sync.NewCond(&s.mu)
	s.shards = make([]*Shard, n)
	for i := range s.shards {
		k := NewKernel()
		sh := &Shard{set: s, idx: i, k: k}
		if n > 1 {
			// A single-shard set is a thin wrapper over one sequential
			// kernel; leaving the kernel unsharded keeps ScheduleFireTx,
			// Stop, and Run on the exact pre-shard code path.
			k.shard = sh
		}
		s.shards[i] = sh
	}
	// Stripe partitions only border their immediate neighbors, but the
	// horizon algebra is topology-agnostic: declare adjacency as i±1.
	for i, sh := range s.shards {
		if i > 0 {
			sh.neighbors = append(sh.neighbors, s.shards[i-1])
		}
		if i < n-1 {
			sh.neighbors = append(sh.neighbors, s.shards[i+1])
		}
		sh.snap = make([]Time, len(sh.neighbors))
	}
	return s
}

// SetMsgLookahead raises the message lookahead: the caller's promise that a
// cross-shard message's callback chain schedules no transmission earlier
// than d after the message's own timestamp. It must be at least the base
// lookahead. The kernel spot-checks the promise where it can — a border
// transmission scheduled directly from a message callback below the bound
// panics — but deeper chains are the caller's proof obligation (for the
// radio model: a message is a frame registration whose event chain starts
// only after the frame's airtime, see node.Build).
func (s *ShardSet) SetMsgLookahead(d Duration) {
	if d < s.lookahead {
		panic(fmt.Sprintf("sim: SetMsgLookahead: %v is below the base lookahead %v", d, s.lookahead))
	}
	s.msgLookahead = d
}

// MsgLookahead returns the message lookahead bound.
func (s *ShardSet) MsgLookahead() Duration { return s.msgLookahead }

// Shards returns the number of shards in the set.
func (s *ShardSet) Shards() int { return len(s.shards) }

// Kernel returns shard i's kernel.
func (s *ShardSet) Kernel(i int) *Kernel { return s.shards[i].k }

// Lookahead returns the set's lookahead bound.
func (s *ShardSet) Lookahead() Duration { return s.lookahead }

// Processed reports the total number of events executed across all shards.
func (s *ShardSet) Processed() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.k.processed
	}
	return n
}

// Utilization returns each shard's utilization record for the last Run:
// events executed, null-message republishes, executor parks, and blocked
// wall-clock time. It must not be called while Run is in flight.
func (s *ShardSet) Utilization() []ShardUtil {
	out := make([]ShardUtil, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.util
		out[i].Events = sh.k.processed
	}
	return out
}

// Stop makes Run return after the events currently executing. Like
// Kernel.Stop it is not an error: Run returns nil.
func (s *ShardSet) Stop() {
	if len(s.shards) == 1 {
		s.shards[0].k.stopped = true
		return
	}
	s.stopped.Store(true)
	s.notify()
}

// Post delivers a cross-shard message: fn(arg) will execute on shard dst's
// kernel at virtual time at, ordered deterministically against everything
// else that shard executes. Post may only be called from inside a
// tx-flagged event (ScheduleFireTx) on a kernel of this set — the lookahead
// contract under which the horizon promises hold — and panics otherwise.
func (s *ShardSet) Post(from *Kernel, dst int, at Time, fn func(any), arg any) {
	sh := from.shard
	if sh == nil || sh.set != s {
		panic("sim: Post from a kernel outside this shard set")
	}
	if !from.inTx {
		panic("sim: cross-shard message posted outside a transmission event (lookahead contract)")
	}
	if at < from.now {
		panic(fmt.Sprintf("sim: cross-shard message at %v posted behind the clock %v", at, from.now))
	}
	if d := dst - sh.idx; d != 1 && d != -1 {
		// Horizons only bind adjacent shards; a post skipping a stripe would
		// arrive unsynchronized. The stripe partition makes this impossible
		// (stripe width >= radio range), so reaching here is a partition bug.
		panic(fmt.Sprintf("sim: cross-shard message from shard %d to non-adjacent shard %d", sh.idx, dst))
	}
	sh.postSeq++
	d := s.shards[dst]
	d.inMu.Lock()
	d.inbox = append(d.inbox, xmsg{at: at, src: uint16(sh.idx), seq: sh.postSeq, fn: fn, arg: arg})
	d.inMu.Unlock()
	d.mail.Store(true)
	s.notify()
}

// notify wakes blocked shards after any state they may be waiting on
// (horizons, inboxes, stop) has changed.
func (s *ShardSet) notify() {
	s.gen.Add(1)
	if s.waiters.Load() > 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// sleep blocks until notify is called after genSeen was read. The generation
// check closes the lost-wakeup window between deciding to sleep and
// acquiring the lock.
func (s *ShardSet) sleep(genSeen uint64) {
	s.mu.Lock()
	s.waiters.Add(1)
	if s.gen.Load() == genSeen && !s.stopped.Load() {
		s.cond.Wait()
	}
	s.waiters.Add(-1)
	s.mu.Unlock()
}

// fail records the first error, stops every shard, and wakes them.
func (s *ShardSet) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.stopped.Store(true)
	s.notify()
}

func (s *ShardSet) failure() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Run executes all shards until each has drained its events up to until (the
// clocks are then advanced to until, mirroring Kernel.Run), Stop is called,
// a kernel's observer (Kernel.OnFire) returns an error, or an ambiguous
// timestamp tie is detected (ErrShardTie). With one shard it is exactly
// Kernel.Run. Like Kernel.Run it may be called repeatedly: after a Run
// that returned nil, schedule more events on the shards' kernels and Run
// again to a later bound. Unlike Kernel.Run, more than one shard needs a
// finite bound, a Stop or an observer's error to return: horizons rise one
// lookahead per null round and cannot prove a drained set quiescent.
//
// slots is the executor slot count, clamped to [1, shards]: each slot is a
// contiguous run of shards, so most neighbor horizons are published by the
// same slot and oversubscribed hosts pay less cross-goroutine waiting. The
// caller chooses it — the scenario planner, from the core tokens it holds
// for the replica — and Run takes no token itself. One slot runs on the
// calling goroutine, where a panic propagates as it does from Kernel.Run;
// more run on a goroutine each, whose panics become the run's error.
func (s *ShardSet) Run(until Time, slots int) error {
	if len(s.shards) == 1 {
		return s.shards[0].k.Run(until)
	}
	slots = max(1, min(slots, len(s.shards)))
	s.stopped.Store(false)
	s.errMu.Lock()
	s.err = nil
	s.errMu.Unlock()
	for _, sh := range s.shards {
		sh.done = false
		sh.util = ShardUtil{}
		// A finished Run left the horizon at Never; the clock is a sound
		// promise to restart from (nothing is posted behind the poster's).
		sh.storeHorizon(sh.k.now)
	}
	if slots == 1 {
		s.slotLoop(until, s.shards)
		return s.failure()
	}
	var wg sync.WaitGroup
	for g := 0; g < slots; g++ {
		lo := g * len(s.shards) / slots
		hi := (g + 1) * len(s.shards) / slots
		wg.Add(1)
		go func(slot []*Shard) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					s.fail(fmt.Errorf("sim: shard slot %v panicked: %v\n%s", shardIndices(slot), r, debug.Stack()))
				}
			}()
			s.slotLoop(until, slot)
		}(s.shards[lo:hi])
	}
	wg.Wait()
	return s.failure()
}

func shardIndices(slot []*Shard) []int {
	out := make([]int, len(slot))
	for i, sh := range slot {
		out[i] = sh.idx
	}
	return out
}

// slotLoop drives one executor slot: round-robin pumps over the slot's
// live shards until all are done. When a full pass neither executes an
// event nor publishes a horizon the slot is blocked on another slot's
// shards (a lone slot never is: its own null republishes carry it on); it
// spins briefly only when spare cores make a concurrent horizon advance
// plausible (never at GOMAXPROCS=1, where yielding the timeslice cannot run
// the neighbor mid-spin), then parks on the condition variable keyed to the
// horizon generation it last observed — any horizon publish, post, or stop
// bumps the generation and wakes it.
func (s *ShardSet) slotLoop(until Time, slot []*Shard) {
	spinBudget := 0
	if runtime.GOMAXPROCS(0) > 1 {
		spinBudget = 32
	}
	spins := 0
	for {
		if s.stopped.Load() {
			return
		}
		genSeen := s.gen.Load()
		progressed := false
		var waiting *Shard
		for _, sh := range slot {
			if sh.done {
				continue
			}
			if waiting == nil {
				waiting = sh
			}
			if sh.pump(until) {
				progressed = true
			}
			if s.stopped.Load() {
				return
			}
		}
		if waiting == nil {
			return // every shard in the slot is done
		}
		if progressed {
			spins = 0
			continue
		}
		if s.gen.Load() != genSeen {
			continue // something already moved; re-scan without waiting
		}
		start := time.Now()
		if spins < spinBudget {
			spins++
			runtime.Gosched()
		} else {
			waiting.util.Parks++
			s.sleep(genSeen)
			spins = 0
		}
		waiting.util.BlockedNs += time.Since(start).Nanoseconds()
	}
}

// pump snapshots neighbor horizons, drains the inbox, executes up to
// pumpBatch safe events, and republishes the horizon. It reports whether
// any event executed, and marks the shard done when no work at or before
// until can ever reach it again.
func (sh *Shard) pump(until Time) bool {
	s := sh.set
	k := sh.k
	sh.snapshot()
	sh.drain()
	bound := sh.bound()
	progressed := false
	for n := 0; n < pumpBatch; n++ {
		ev := k.peekLive()
		if ev == nil || ev.at > until {
			break
		}
		isMsg := ev.seq >= msgSeqBit
		if ev.at > bound || (ev.at == bound && isMsg) {
			break
		}
		if isMsg && ev.at == k.lastLocalAt {
			s.fail(ErrShardTie)
			return progressed
		}
		k.fire(ev)
		progressed = true
		if k.observer != nil {
			if err := k.observer(k.now); err != nil {
				s.fail(err)
				return progressed
			}
		}
		sh.publish()
	}
	if advanced := sh.publish(); !progressed {
		if advanced {
			sh.util.NullRepublishes++
		}
		if ev := k.peekLive(); (ev == nil || ev.at > until) && !sh.mail.Load() && bound > until {
			// Done: no local work at or before until, and every neighbor has
			// promised not to send any. Publishing Never releases them.
			if k.now < until && until != Never {
				k.now = until
			}
			sh.storeHorizon(Never)
			sh.done = true
			s.notify()
		}
	}
	return progressed
}
