package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const testLookahead Duration = 10 * Microsecond

// chainSpec drives a deterministic cross-shard workload: each shard runs a
// chain of tx-flagged events; every firing appends a record to the shard's
// log and posts a message to the peer shard, whose execution also logs.
type chainSpec struct {
	set  *ShardSet
	logs [][]string // one per shard; only appended to by that shard's kernel
}

func newChainSpec(n int) *chainSpec {
	cs := &chainSpec{set: NewShardSet(n, testLookahead), logs: make([][]string, n)}
	// Distinct per-shard periods keep transmission timestamps from ever
	// colliding across shards: bit-identical cross-shard timestamps are the
	// ambiguous-tie case and trip ErrShardTie by design (tested separately).
	periods := []Duration{1.31 * testLookahead, 1.73 * testLookahead, 2.39 * testLookahead, 3.11 * testLookahead}
	for i := 0; i < n; i++ {
		i := i
		k := cs.set.Kernel(i)
		// Post only to an adjacent shard: horizons bind neighbors, matching
		// the stripe partition where cross-shard radio traffic is always ±1.
		peer := i + 1
		if peer == n {
			peer = n - 2
		}
		period := periods[i%len(periods)]
		var fire func()
		fire = func() {
			now := k.Now()
			cs.logs[i] = append(cs.logs[i], fmt.Sprintf("tx s%d %v", i, now))
			cs.set.Post(k, peer, now, func(arg any) {
				cs.logs[peer] = append(cs.logs[peer], fmt.Sprintf("rx s%d<-s%d %v", peer, i, cs.set.Kernel(peer).Now()))
			}, nil)
			k.ScheduleFireTx(period, fire, true)
		}
		k.ScheduleFireTx(period, fire, true)
	}
	return cs
}

// refRun is the reference the slot loop is compared against: one goroutine
// executes the (time, shard)-earliest live event of the whole set, so no
// horizon is ever consulted. That is always safe — any message the event
// posts is timestamped at the poster's clock, no earlier than every other
// shard's next event — and it applies the same per-kernel merge rules
// (message sequence keys, the tie tripwire). It is the core of runSeq, the
// executor ShardSet.Run used at one slot before the slot loop ran every
// slot count, moved here without its limits, Stop and burst amortization.
func refRun(s *ShardSet, until Time) error {
	for {
		var best *Shard
		var next *event
		for _, sh := range s.shards {
			sh.drain()
			if ev := sh.k.peekLive(); ev != nil && (next == nil || ev.at < next.at) {
				best, next = sh, ev
			}
		}
		if next == nil || next.at > until {
			break
		}
		if next.seq >= msgSeqBit && next.at == best.k.lastLocalAt {
			return ErrShardTie
		}
		best.k.Step()
	}
	for _, sh := range s.shards {
		sh.k.now = max(sh.k.now, until)
	}
	return nil
}

// play runs the chain to until on the given number of executor slots;
// slots == 0 selects refRun.
func (cs *chainSpec) play(t *testing.T, until Time, slots int) {
	t.Helper()
	var err error
	if slots == 0 {
		err = refRun(cs.set, until)
	} else {
		err = cs.set.Run(until, slots)
	}
	if err != nil {
		t.Fatalf("run to %v on %d slots: %v", until, slots, err)
	}
}

// eachSlotCount runs f as a subtest on one slot ("seq": the shards take
// turns on the caller's goroutine) and on one slot per shard ("par").
func eachSlotCount(t *testing.T, shards int, f func(t *testing.T, slots int)) {
	t.Run("seq", func(t *testing.T) { f(t, 1) })
	t.Run("par", func(t *testing.T) { f(t, shards) })
}

func (cs *chainSpec) transcript() string {
	var b strings.Builder
	for i, log := range cs.logs {
		fmt.Fprintf(&b, "shard %d:\n", i)
		for _, line := range log {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestShardSetDeterministicAcrossExecutors pins the determinism contract:
// the slot loop — on the caller's goroutine, on a goroutine per shard, and
// on repeated runs — must interleave cross-shard messages exactly as the
// reference executor does.
func TestShardSetDeterministicAcrossExecutors(t *testing.T) {
	// 1 ms keeps the run short of the first rational coincidence of the
	// chain periods (173·1.31L = 131·1.73L ≈ 2.27 ms), where timestamps
	// would legitimately collide and trip the tie detector.
	const until = Millisecond
	run := func(slots int) string {
		cs := newChainSpec(3)
		cs.play(t, until, slots)
		for i := 0; i < cs.set.Shards(); i++ {
			if got := cs.set.Kernel(i).Now(); got != until {
				t.Fatalf("shard %d clock = %v, want %v", i, got, until)
			}
		}
		return cs.transcript()
	}
	ref := run(0)
	if ref == "" || !strings.Contains(ref, "rx s1<-s2") {
		t.Fatalf("reference transcript did not exercise cross-shard posts:\n%s", ref)
	}
	for i := 0; i < 3; i++ {
		for _, slots := range []int{1, 3} {
			if got := run(slots); got != ref {
				t.Fatalf("run %d on %d slots diverged from the reference:\nref:\n%s\ngot:\n%s", i, slots, ref, got)
			}
		}
	}
}

// TestShardSetRunTwice: Run is re-entrant on every slot count. A finished
// run leaves every horizon at Never; a second run that did not take the
// promises back would let each shard race past messages its neighbors have
// yet to post.
func TestShardSetRunTwice(t *testing.T) {
	const half = Millisecond / 2
	// Two more border transmissions, on the outer shards, at a timestamp no
	// chain period reaches.
	extra := func(cs *chainSpec, delay Duration) {
		for _, i := range []int{0, cs.set.Shards() - 1} {
			k, peer := cs.set.Kernel(i), 1
			if i > 0 {
				peer = i - 1
			}
			k.ScheduleFireTx(delay, func() {
				cs.logs[i] = append(cs.logs[i], fmt.Sprintf("extra tx s%d %v", i, k.Now()))
				cs.set.Post(k, peer, k.Now(), func(any) {
					cs.logs[peer] = append(cs.logs[peer], fmt.Sprintf("extra rx s%d<-s%d %v", peer, i, cs.set.Kernel(peer).Now()))
				}, nil)
			}, true)
		}
	}
	once := newChainSpec(4)
	extra(once, half+1.03*testLookahead)
	once.play(t, 2*half, 0)
	want := once.transcript()
	if !strings.Contains(want, "extra rx s1<-s0") || !strings.Contains(want, "extra rx s2<-s3") {
		t.Fatalf("reference transcript is missing the extra transmissions:\n%s", want)
	}
	for slots := 1; slots <= 4; slots++ {
		cs := newChainSpec(4)
		cs.play(t, half, slots)
		extra(cs, 1.03*testLookahead)
		cs.play(t, 2*half, slots)
		if got := cs.transcript(); got != want {
			t.Fatalf("two runs on %d slots diverged from one run:\nwant:\n%s\ngot:\n%s", slots, want, got)
		}
	}
}

// TestScheduleFireTxLookaheadContract: a border transmission scheduled
// below the lookahead bound must fail loud, because horizons already
// promised to neighbor shards assumed it could not exist.
func TestScheduleFireTxLookaheadContract(t *testing.T) {
	set := NewShardSet(2, testLookahead)
	k := set.Kernel(0)

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("ScheduleFireTx below lookahead on a border node did not panic")
			}
		}()
		k.ScheduleFireTx(testLookahead/2, func() {}, true)
	}()

	// A non-border node never emits cross-shard traffic, so the bound does
	// not apply to it.
	k.ScheduleFireTx(testLookahead/2, func() {}, false)

	// Posting outside a tx-flagged event breaks the same contract.
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("Post outside a transmission event did not panic")
			}
		}()
		set.Post(k, 1, 0, func(any) {}, nil)
	}()
}

// TestShardSetAggregateEventLimit: an observer shared by every shard's
// kernel, counting events across the set, must abort all shards cleanly —
// its error from Run, and no shard goroutine left behind.
func TestShardSetAggregateEventLimit(t *testing.T) {
	eachSlotCount(t, 4, func(t *testing.T, slots int) {
		before := runtime.NumGoroutine()
		cs := newChainSpec(4)
		var ks []*Kernel
		for i := 0; i < cs.set.Shards(); i++ {
			ks = append(ks, cs.set.Kernel(i))
		}
		fired := limitEvents(500, ks...)
		err := cs.set.Run(Never, slots)
		if err == nil || !strings.Contains(err.Error(), "event limit 500") {
			t.Fatalf("Run with aggregate limit: err = %v, want the limit's error", err)
		}
		if got := cs.set.Processed(); got < 500 || got != fired.Load() {
			t.Fatalf("Processed() = %d, observer saw %d, want the same count >= 500", got, fired.Load())
		}
		waitGoroutines(t, before)
	})
}

// TestShardSetPerKernelEventLimit: an observer on one shard's kernel sees
// that shard's events only; its error aborts the whole set.
func TestShardSetPerKernelEventLimit(t *testing.T) {
	cs := newChainSpec(2)
	fired := limitEvents(100, cs.set.Kernel(1))
	err := cs.set.Run(Never, 2)
	if err == nil || !strings.Contains(err.Error(), "event limit 100") {
		t.Fatalf("Run with per-kernel limit: err = %v, want the limit's error", err)
	}
	if p := cs.set.Kernel(1).Processed(); p != fired.Load() || p != 100 {
		t.Fatalf("shard 1 processed %d events, observer saw %d, want 100", p, fired.Load())
	}
}

// TestShardSetStop: Kernel.Stop from inside an event stops every shard (a
// lone halted region would deadlock its neighbors), Run returns nil, and no
// goroutines leak.
func TestShardSetStop(t *testing.T) {
	eachSlotCount(t, 4, func(t *testing.T, slots int) {
		before := runtime.NumGoroutine()
		cs := newChainSpec(4)
		var stopped atomic.Bool
		cs.set.Kernel(2).ScheduleFire(Millisecond, func() {
			stopped.Store(true)
			cs.set.Kernel(2).Stop()
		})
		if err := cs.set.Run(Never, slots); err != nil {
			t.Fatalf("run: %v", err)
		}
		if !stopped.Load() {
			t.Fatal("stop event never ran")
		}
		waitGoroutines(t, before)
	})
}

// TestShardTieTripsLoud: a cross-shard message landing on the exact
// timestamp of a local transmission event is ambiguous against the
// sequential order; the run must fail with ErrShardTie rather than pick an
// order silently.
func TestShardTieTripsLoud(t *testing.T) {
	eachSlotCount(t, 2, func(t *testing.T, slots int) {
		set := NewShardSet(2, testLookahead)
		k0, k1 := set.Kernel(0), set.Kernel(1)
		// Shard 0 transmits at t=2L and posts a message timestamped at
		// its own clock; shard 1 independently transmits at the same
		// bit-identical timestamp.
		k0.ScheduleFireTx(2*testLookahead, func() {
			set.Post(k0, 1, k0.Now(), func(any) {}, nil)
		}, true)
		k1.ScheduleFireTx(2*testLookahead, func() {}, true)
		if err := set.Run(Millisecond, slots); !errors.Is(err, ErrShardTie) {
			t.Fatalf("run: err = %v, want ErrShardTie", err)
		}
	})
}

// TestSingleShardSetIsSequentialKernel: a one-shard set must leave its
// kernel on the plain sequential path (no shard hooks, Stop works as on a
// bare kernel).
func TestSingleShardSetIsSequentialKernel(t *testing.T) {
	set := NewShardSet(1, 0)
	k := set.Kernel(0)
	if k.shard != nil {
		t.Fatal("single-shard set attached shard state to its kernel")
	}
	ran := 0
	k.ScheduleFireTx(0, func() { ran++ }, true) // no lookahead bound at S=1
	k.ScheduleFire(Millisecond, func() { k.Stop() })
	k.ScheduleFire(2*Millisecond, func() { ran++ })
	if err := set.Run(Never, 1); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d events, want 1 (Stop must halt the kernel)", ran)
	}
}

// TestNewShardSetRejectsKeyOverflow: a shard index past the message key's
// source field would alias another shard's messages in the merge order.
func TestNewShardSetRejectsKeyOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShardSet past the key's source-shard field did not panic")
		}
	}()
	NewShardSet(1<<(63-msgSrcShift)+1, testLookahead)
}

// TestEventPoolCap: the free list must not grow past maxEventPool no matter
// how large a burst of simultaneous events resolves.
func TestEventPoolCap(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 3*maxEventPool; i++ {
		k.ScheduleFire(Microsecond, func() {})
	}
	if err := k.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(k.pool) > maxEventPool {
		t.Fatalf("event pool grew to %d entries, cap is %d", len(k.pool), maxEventPool)
	}
	if len(k.pool) != maxEventPool {
		t.Fatalf("event pool holds %d entries after a %d-event burst, want full cap %d",
			len(k.pool), 3*maxEventPool, maxEventPool)
	}
}

// waitGoroutines polls until the goroutine count returns to (at most) its
// pre-run baseline, failing the test if shard goroutines leak.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
