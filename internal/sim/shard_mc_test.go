package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestShardSetDeterministicAcrossGroups pins the slot loop to the
// determinism contract: every slot count from one (all shards pumped from
// the caller's goroutine, every neighbor in the same slot) to
// goroutine-per-shard must produce the reference transcript.
func TestShardSetDeterministicAcrossGroups(t *testing.T) {
	const until = Millisecond
	run := func(slots int) string {
		cs := newChainSpec(4)
		cs.play(t, until, slots)
		return cs.transcript()
	}
	ref := run(0)
	if !strings.Contains(ref, "rx s1<-s0") {
		t.Fatalf("reference transcript did not exercise cross-shard posts:\n%s", ref)
	}
	for slots := 1; slots <= 4; slots++ {
		if got := run(slots); got != ref {
			t.Fatalf("slots=%d diverged from the reference:\nref:\n%s\ngot:\n%s", slots, ref, got)
		}
	}
}

// TestShardSetDeterministicWithMsgLookahead: raising the message lookahead
// only changes how fast horizons propagate, never what executes — the
// transcript must match the reference at every slot count.
func TestShardSetDeterministicWithMsgLookahead(t *testing.T) {
	const until = Millisecond
	run := func(slots int, msgLA Duration) string {
		cs := newChainSpec(3)
		if msgLA > 0 {
			cs.set.SetMsgLookahead(msgLA)
		}
		cs.play(t, until, slots)
		return cs.transcript()
	}
	want := run(0, 0)
	for slots := 1; slots <= 3; slots++ {
		for _, msgLA := range []Duration{5 * testLookahead, 100 * testLookahead} {
			if got := run(slots, msgLA); got != want {
				t.Fatalf("slots=%d msgLA=%v diverged:\nwant:\n%s\ngot:\n%s", slots, msgLA, want, got)
			}
		}
	}
}

// TestSetMsgLookaheadValidation: the message lookahead is a promise at
// least as strong as the base lookahead; weakening it must fail loud.
func TestSetMsgLookaheadValidation(t *testing.T) {
	set := NewShardSet(2, testLookahead)
	if got := set.MsgLookahead(); got != testLookahead {
		t.Fatalf("default MsgLookahead = %v, want the base lookahead %v", got, testLookahead)
	}
	set.SetMsgLookahead(3 * testLookahead)
	if got := set.MsgLookahead(); got != 3*testLookahead {
		t.Fatalf("MsgLookahead = %v after SetMsgLookahead(3L), want %v", got, 3*testLookahead)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("SetMsgLookahead below the base lookahead did not panic")
		}
	}()
	set.SetMsgLookahead(testLookahead / 2)
}

// TestMsgLookaheadContractSpotCheck: a border transmission scheduled
// directly from a message callback below the promised message lookahead
// violates horizons already published on the strength of that promise, so
// the kernel must panic rather than corrupt the run.
func TestMsgLookaheadContractSpotCheck(t *testing.T) {
	set := NewShardSet(2, testLookahead)
	set.SetMsgLookahead(4 * testLookahead)
	k0, k1 := set.Kernel(0), set.Kernel(1)
	k0.ScheduleFireTx(2*testLookahead, func() {
		set.Post(k0, 1, k0.Now()+testLookahead/2, func(any) {
			// Base lookahead alone is not enough once msgLookahead is 4L.
			k1.ScheduleFireTx(testLookahead, func() {}, true)
		}, nil)
	}, true)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("border ScheduleFireTx below the message lookahead did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "SetMsgLookahead contract") {
			t.Fatalf("panic = %v, want a SetMsgLookahead contract violation", r)
		}
	}()
	_ = set.Run(Millisecond, 1) // one slot: the panic reaches the caller
}

// TestShardUtilization: per-shard utilization must account every executed
// event at every slot count.
func TestShardUtilization(t *testing.T) {
	eachSlotCount(t, 3, func(t *testing.T, slots int) {
		cs := newChainSpec(3)
		cs.play(t, Millisecond, slots)
		util := cs.set.Utilization()
		if len(util) != 3 {
			t.Fatalf("Utilization returned %d records, want 3", len(util))
		}
		var events uint64
		for _, u := range util {
			events += u.Events
		}
		if events == 0 || events != cs.set.Processed() {
			t.Fatalf("utilization accounts %d events, Processed() = %d", events, cs.set.Processed())
		}
	})
}

// TestCoreBudget: the token account must clamp at the budget, never go
// negative, and drain back to zero after release.
func TestCoreBudget(t *testing.T) {
	prev := runtime.GOMAXPROCS(3) // the budget
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if used := coreUsed.Load(); used != 0 {
		t.Fatalf("core tokens leaked from a previous test: %d in use", used)
	}
	if got := AcquireCores(2); got != 2 {
		t.Fatalf("AcquireCores(2) on an empty budget of 3 = %d, want 2", got)
	}
	if got := AcquireCores(5); got != 1 {
		t.Fatalf("AcquireCores(5) with 1 spare = %d, want 1", got)
	}
	if got := AcquireCores(1); got != 0 {
		t.Fatalf("AcquireCores(1) on an exhausted budget = %d, want 0", got)
	}
	if got := AcquireCores(0); got != 0 {
		t.Fatalf("AcquireCores(0) = %d, want 0", got)
	}
	ReleaseCores(3)
	ReleaseCores(0)
	if used := coreUsed.Load(); used != 0 {
		t.Fatalf("coreUsed = %d after releasing everything, want 0", used)
	}
}

// TestShardSetRunTakesNoCoreTokens: the slot count is Run's argument — the
// scenario planner sizes it from the budget and holds the tokens — so Run
// neither takes a token while the shards execute nor returns one, on an
// idle budget and on a saturated one, at every slot count (out-of-range
// counts are clamped to [1, shards]).
func TestShardSetRunTakesNoCoreTokens(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if used := coreUsed.Load(); used != 0 {
		t.Fatalf("core tokens leaked from a previous test: %d in use", used)
	}
	for _, held := range []int{0, 8} {
		if got := AcquireCores(held); got != held {
			t.Fatalf("AcquireCores(%d) = %d", held, got)
		}
		for _, slots := range []int{0, 1, 4, 9} {
			cs := newChainSpec(4)
			var during int64 = -1
			cs.set.Kernel(0).ScheduleFire(Millisecond/2, func() { during = coreUsed.Load() })
			if err := cs.set.Run(Millisecond, slots); err != nil {
				t.Fatalf("Run on %d slots: %v", slots, err)
			}
			if during != int64(held) || coreUsed.Load() != int64(held) {
				t.Errorf("held %d, slots %d: %d tokens in use during Run and %d after, want %d both",
					held, slots, during, coreUsed.Load(), held)
			}
		}
		ReleaseCores(held)
	}
}
