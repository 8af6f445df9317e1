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
	_ = set.run(Millisecond, 1) // one slot: the panic reaches the caller
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

// TestShardSetRunReleasesCoreTokens: the budgeted executor path must return
// every token it took, including the surplus released up front when
// GOMAXPROCS caps the slot count below the grant.
func TestShardSetRunReleasesCoreTokens(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if used := coreUsed.Load(); used != 0 {
		t.Fatalf("core tokens leaked from a previous test: %d in use", used)
	}
	cs := newChainSpec(4)
	if err := cs.set.Run(Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if used := coreUsed.Load(); used != 0 {
		t.Fatalf("coreUsed = %d after Run, want 0", used)
	}
}

// TestShardSetRunSizesExecutorFromBudget: Run sizes its executor from what
// it observes — spare core tokens capped at GOMAXPROCS — and nothing else.
func TestShardSetRunSizesExecutorFromBudget(t *testing.T) {
	slots := func(procs, held int) int {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		if got := AcquireCores(held); got != held {
			t.Fatalf("AcquireCores(%d) = %d", held, got)
		}
		defer ReleaseCores(held)
		cs := newChainSpec(4)
		if err := cs.set.Run(Millisecond); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return cs.set.slots
	}
	if got := slots(1, 0); got != 1 {
		t.Errorf("GOMAXPROCS=1 ran %d slots, want 1", got)
	}
	if got := slots(4, 0); got != 4 {
		t.Errorf("GOMAXPROCS=4 with an idle budget ran %d slots, want 4", got)
	}
	if got := slots(4, 4); got != 1 {
		t.Errorf("a saturated budget (every token held by pool workers) ran %d slots, want 1", got)
	}
	if used := coreUsed.Load(); used != 0 {
		t.Fatalf("coreUsed = %d afterwards, want 0", used)
	}
}
