package sim

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if got := k.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.ScheduleFire(3, func() { order = append(order, 3) })
	k.ScheduleFire(1, func() { order = append(order, 1) })
	k.ScheduleFire(2, func() { order = append(order, 2) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTiesBreakInSchedulingOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.ScheduleFire(5, func() { order = append(order, i) })
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	k := NewKernel()
	var at Time
	k.ScheduleFire(2.5, func() { at = k.Now() })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != 2.5 {
		t.Fatalf("event saw Now() = %v, want 2.5", at)
	}
}

// TestSchedulePastFails: a silently dropped event corrupts the simulation,
// so every scheduling entry point crashes loudly on a negative delay — also
// after the clock has moved — and names ErrPastEvent.
func TestSchedulePastFails(t *testing.T) {
	k := NewKernel()
	k.ScheduleFire(1, func() {})
	if !k.Step() {
		t.Fatal("no event to step")
	}
	for name, schedule := range map[string]func(){
		"ScheduleFire":       func() { k.ScheduleFire(-0.5, func() {}) },
		"Batch.Add":          func() { k.NewBatch(func(any) {}).Add(-0.5, nil) },
		"ScheduleFireHandle": func() { k.ScheduleFireHandle(-0.5, func() {}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), ErrPastEvent.Error()) {
					t.Fatalf("%s(-0.5) at %v: recovered %v, want a panic naming ErrPastEvent", name, k.Now(), r)
				}
			}()
			schedule()
		}()
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	k := NewKernel()
	fired := false
	h := k.ScheduleFireHandle(1, func() { fired = true })
	if !k.CancelHandle(h) {
		t.Fatal("CancelHandle reported no pending event")
	}
	if k.CancelHandle(h) {
		t.Fatal("second CancelHandle should report false")
	}
	if k.CancelHandle(TimerHandle{}) {
		t.Fatal("CancelHandle on the zero handle should report false")
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Duration{1, 2, 3, 4} {
		d := d
		k.ScheduleFire(d, func() { fired = append(fired, d) })
	}
	if err := k.Run(2.5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v events before horizon, want 2", fired)
	}
	if k.Now() != 2.5 {
		t.Fatalf("Now() = %v after Run(2.5), want 2.5", k.Now())
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4 after RunAll", fired)
	}
}

func TestRunAdvancesClockToHorizonWhenIdle(t *testing.T) {
	k := NewKernel()
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", k.Now())
	}
}

func TestStopAbortsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 10; i++ {
		k.ScheduleFire(Duration(i+1), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("executed %d events, want 3 (stopped)", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.ScheduleFire(1, func() {
		times = append(times, k.Now())
		k.ScheduleFire(1, func() { times = append(times, k.Now()) })
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

// limitEvents makes the runs of the given kernels fail once n events have
// fired on them together: every kernel gets one observer over one atomic
// counter, so the limit holds across the shards of a set. It returns the
// counter.
func limitEvents(n uint64, ks ...*Kernel) *atomic.Uint64 {
	fired := new(atomic.Uint64)
	stop := func(at Time) error {
		if fired.Add(1) >= n {
			return fmt.Errorf("event limit %d reached at %v", n, at)
		}
		return nil
	}
	for _, k := range ks {
		k.OnFire(stop)
	}
	return fired
}

// TestEventLimitBackstop: an observer's error ends Run after exactly the
// event that tripped it, with the clock at that event; removing the
// observer lets the next Run go on.
func TestEventLimitBackstop(t *testing.T) {
	k := NewKernel()
	limitEvents(100, k)
	var loop func()
	loop = func() { k.ScheduleFire(1, loop) }
	k.ScheduleFire(1, loop)
	err := k.RunAll()
	if err == nil || !strings.Contains(err.Error(), "event limit 100") {
		t.Fatalf("RunAll with runaway loop: err = %v, want the limit's error", err)
	}
	if k.Processed() != 100 || k.Now() != 100 {
		t.Fatalf("stopped after %d events at %v, want 100 at 100s", k.Processed(), k.Now())
	}
	k.OnFire(nil)
	if err := k.Run(150); err != nil || k.Processed() != 150 {
		t.Fatalf("Run without observer: err = %v after %d events, want nil after 150", err, k.Processed())
	}
}

// Property: for any set of non-negative delays, events fire in nondecreasing
// time order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		last := Time(-1)
		ok := true
		for _, r := range raw {
			d := Duration(r) / 100
			k.ScheduleFire(d, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		if err := k.RunAll(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetAndStop(t *testing.T) {
	k := NewKernel()
	fired := 0
	tm := NewTimer(k, func() { fired++ })
	tm.Reset(5)
	tm.Reset(10) // supersedes the first arming
	if !tm.Active() {
		t.Fatal("timer should be active")
	}
	if err := k.Run(7); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("timer fired at old deadline; fired=%d", fired)
	}
	if err := k.Run(11); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	tm.Reset(5)
	if !tm.Stop() {
		t.Fatal("Stop should report a pending firing")
	}
	if err := k.Run(30); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("stopped timer fired; fired=%d", fired)
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	tk := NewTicker(k, 2, nil, func() { ticks = append(ticks, k.Now()) })
	if err := k.Run(7); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks at 2,4,6", ticks)
	}
	tk.Stop()
	if err := k.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 3 {
		t.Fatalf("ticker ticked after Stop: %v", ticks)
	}
}

func TestTickerJitter(t *testing.T) {
	k := NewKernel()
	g := NewRNG(1)
	var ticks []Time
	NewTicker(k, 1, func() Duration { return g.Jitter(0.5) }, func() {
		ticks = append(ticks, k.Now())
	})
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(ticks) < 6 || len(ticks) > 10 {
		t.Fatalf("jittered ticker produced %d ticks in 10s with period 1+U(0,0.5), want 6..10", len(ticks))
	}
	for i := 1; i < len(ticks); i++ {
		gap := ticks[i] - ticks[i-1]
		if gap < 1 || gap > 1.5+1e-9 {
			t.Fatalf("tick gap %v outside [1, 1.5]", gap)
		}
	}
}

func TestTimerStopOnInactive(t *testing.T) {
	k := NewKernel()
	tm := NewTimer(k, func() {})
	if tm.Stop() {
		t.Fatal("Stop on never-armed timer reported pending")
	}
	if tm.Active() {
		t.Fatal("never-armed timer is active")
	}
}

func TestNeverIsLaterThanAnything(t *testing.T) {
	if !(Never > Time(math.MaxFloat32)) {
		t.Fatal("Never is not large")
	}
}

func TestScheduleFireRunsInOrder(t *testing.T) {
	// Fire-and-forget events share the sequence space with handled
	// ones: ties still break in overall scheduling order.
	k := NewKernel()
	var order []int
	k.ScheduleFireHandle(1, func() { order = append(order, 0) })
	k.ScheduleFire(1, func() { order = append(order, 1) })
	k.ScheduleFireHandle(1, func() { order = append(order, 2) })
	k.ScheduleFire(0.5, func() { order = append(order, 3) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleFirePanicsOnNegativeDelay(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleFire(-1) did not panic")
		}
	}()
	k.ScheduleFire(-1, func() {})
}

// TestBatchPassesArguments: each item runs the batch's callback with its
// own argument, in time order whatever the Add order.
func TestBatchPassesArguments(t *testing.T) {
	k := NewKernel()
	type payload struct{ n int }
	var got []int
	b := k.NewBatch(func(x any) { got = append(got, x.(*payload).n) })
	b.Add(2, &payload{n: 2})
	b.Add(1, &payload{n: 1})
	b.Schedule()
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestEventPoolRecyclesSafely(t *testing.T) {
	// Events recycled on pop must not leak state into later schedules,
	// including when a callback schedules new events (which may reuse the
	// struct popped for the callback itself), cancels events, or mixes the
	// handled and fire-and-forget paths.
	k := NewKernel()
	var fired []int
	var chain func(depth int) func()
	chain = func(depth int) func() {
		return func() {
			fired = append(fired, depth)
			if depth < 50 {
				k.ScheduleFire(1, chain(depth+1))
				k.CancelHandle(k.ScheduleFireHandle(0.5, func() { t.Error("cancelled event fired") }))
			}
		}
	}
	k.ScheduleFire(1, chain(0))
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 51 {
		t.Fatalf("fired %d events, want 51", len(fired))
	}
	for i, d := range fired {
		if d != i {
			t.Fatalf("fired = %v, want ascending depths", fired)
		}
	}
}
