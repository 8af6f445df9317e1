package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// drain pops every event from w and returns the (at, seq) order observed.
func drainWheel(w *wheelQueue) []*event {
	var out []*event
	for w.len() > 0 {
		out = append(out, w.pop())
	}
	return out
}

// TestWheelPopsInExactOrder pushes events spanning every routing tier —
// same-tick ties in run, level-0 slots, level-1 slots, and the overflow
// heap — and checks the pop order is the exact (at, seq) total order.
func TestWheelPopsInExactOrder(t *testing.T) {
	w := newWheelQueue()
	quantum := Time(1) / Time(wheelInv)
	var evs []*event
	var seq uint64
	add := func(at Time) {
		seq++
		ev := &event{at: at, seq: seq}
		evs = append(evs, ev)
		w.push(ev)
	}
	// Same-tick ties (sub-quantum separation) — must break by seq.
	add(quantum / 4)
	add(quantum / 2)
	add(quantum / 4)
	// Level 0: within the first 256 ticks.
	for i := 0; i < 50; i++ {
		add(Time(50-i) * quantum * 3)
	}
	// Level 1: within the first 16384 ticks but past level 0.
	for i := 0; i < 20; i++ {
		add(Time(i%7)*quantum*700 + quantum*300)
	}
	// Overflow: several level-1 pages out, plus genuinely far timers.
	add(quantum * 20000)
	add(quantum * 1e7)
	add(3600)
	add(7200)

	want := append([]*event(nil), evs...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].before(want[j]) })
	got := drainWheel(w)
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop[%d] = (at=%v seq=%d), want (at=%v seq=%d)",
				i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
}

// TestWheelInterleavedPushPop interleaves pushes and pops the way a live
// kernel does (each pop may enqueue new near-future events) and checks the
// running minimum never regresses.
func TestWheelInterleavedPushPop(t *testing.T) {
	w := newWheelQueue()
	rng := rand.New(rand.NewSource(7))
	var seq uint64
	now := Time(0)
	push := func(at Time) {
		seq++
		w.push(&event{at: at, seq: seq})
	}
	for i := 0; i < 100; i++ {
		push(Time(rng.Float64()) * 10)
	}
	last := &event{at: -1}
	for w.len() > 0 {
		ev := w.pop()
		if ev.before(last) {
			t.Fatalf("pop order regressed: (at=%v seq=%d) after (at=%v seq=%d)",
				ev.at, ev.seq, last.at, last.seq)
		}
		last = ev
		now = ev.at
		if seq < 5000 {
			// Mimic protocol behavior: reschedule near and far from "now".
			push(now + Time(rng.Float64())*1e-4)
			if rng.Intn(4) == 0 {
				push(now + Time(rng.Float64())*100)
			}
		}
	}
}

// TestWheelScheduleBehindPosition covers the Run(until) horizon case: a
// peek advances the wheel position to a far event's tick, the clock stops
// short at the horizon, and a later schedule lands at a tick the position
// has already passed. Such events must still fire in exact time order.
func TestWheelScheduleBehindPosition(t *testing.T) {
	k := NewKernel()
	var order []int
	k.ScheduleFire(100, func() { order = append(order, 100) })
	// Run to a horizon far short of the only event: peekLive advances the
	// wheel position to tick(100), then the clock parks at 50.
	if err := k.Run(50); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", k.Now())
	}
	// This lands behind the wheel position but ahead of the clock.
	k.ScheduleFire(10, func() { order = append(order, 60) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 60 || order[1] != 100 {
		t.Fatalf("fire order = %v, want [60 100]", order)
	}
}

// TestWheelFarFutureClamp exercises the wheelMaxTick clamp: timestamps too
// large for a uint64 tick index must still be queued and ordered.
func TestWheelFarFutureClamp(t *testing.T) {
	k := NewKernel()
	var order []int
	k.ScheduleFire(Duration(1e30), func() { order = append(order, 1) })
	k.ScheduleFire(Duration(2e30), func() { order = append(order, 2) })
	k.ScheduleFire(1, func() { order = append(order, 0) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order = %v, want [0 1 2]", order)
	}
}

func TestWheelTickOfMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prev := Time(0)
	for i := 0; i < 10000; i++ {
		next := prev + Time(rng.Float64())*Time(rng.Intn(1000))/997
		if wheelTickOf(next) < wheelTickOf(prev) {
			t.Fatalf("tickOf not monotone: tickOf(%v)=%d < tickOf(%v)=%d",
				next, wheelTickOf(next), prev, wheelTickOf(prev))
		}
		prev = next
	}
	if wheelTickOf(Never) != wheelMaxTick {
		t.Fatalf("tickOf(Never) = %d, want clamp %d", wheelTickOf(Never), wheelMaxTick)
	}
}

// TestCancelHandleStaleAfterRecycle checks that a handle kept past its
// event's firing can never cancel an unrelated event that recycled the
// same struct from the free-list pool.
func TestCancelHandleStaleAfterRecycle(t *testing.T) {
	k := NewKernel()
	h := k.ScheduleFireHandle(1, func() {})
	if !k.Step() {
		t.Fatal("no event to step")
	}
	// The struct h references is now in the pool; this schedule recycles it.
	fired := false
	k.ScheduleFire(1, func() { fired = true })
	if k.CancelHandle(h) {
		t.Fatal("stale handle reported a successful cancel")
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale handle cancelled an unrelated recycled event")
	}
}

func TestCancelHandleDoubleCancel(t *testing.T) {
	k := NewKernel()
	h := k.ScheduleFireHandle(1, func() { t.Error("cancelled event fired") })
	if !k.CancelHandle(h) {
		t.Fatal("first CancelHandle reported false")
	}
	if k.CancelHandle(h) {
		t.Fatal("second CancelHandle reported true")
	}
	if k.CancelHandle(TimerHandle{}) {
		t.Fatal("zero handle cancelled something")
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainedQueueReleasesReferences is the GC-retention check: after a
// large queue fully drains, the fired closures' captures must be
// collectible — neither an eventHeap's backing array (the wheel's run and
// overflow stores), the wheel's slot arrays, the free-list pools, nor a
// resolved batch's item array may pin them.
func TestDrainedQueueReleasesReferences(t *testing.T) {
	const n = 4096
	total := 0
	for _, tc := range []struct {
		name string
		// fill queues fn(i) for i < n; drain runs every queued callback.
		fill func(fn func(i int) func()) (drain func())
	}{
		{"heap", func(fn func(int) func()) func() {
			h := new(eventHeap)
			for i := 0; i < n; i++ {
				h.push(&event{at: Time(i % 977), seq: uint64(i + 1), fn: fn(i)})
			}
			return func() {
				for len(*h) > 0 {
					h.pop().fn()
				}
			}
		}},
		{"wheel", func(fn func(int) func()) func() {
			k := NewKernel()
			for i := 0; i < n; i++ {
				// Spread across the run/level-0/level-1/overflow tiers.
				k.ScheduleFire(Duration(i%977)*3e-4, fn(i))
			}
			return func() {
				if err := k.RunAll(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"batch", func(fn func(int) func()) func() {
			k := NewKernel()
			run := func(a any) { a.(func())() }
			var b *Batch
			for i := 0; i < n; i++ {
				// Batches of eight, their items spread like the wheel case's.
				if i%8 == 0 {
					b = k.NewBatch(run)
				}
				b.Add(Duration(i%977)*3e-4, fn(i))
				if i%8 == 7 {
					b.Schedule()
				}
			}
			return func() {
				if err := k.RunAll(); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			collected := make(chan struct{}, n)
			total = 0
			drain := tc.fill(func(i int) func() {
				payload := &[64]byte{byte(i)}
				runtime.SetFinalizer(payload, func(*[64]byte) { collected <- struct{}{} })
				// The sum forces a real capture of payload in the closure.
				return func() { total += int(payload[0]) }
			})
			drain()
			if total == 0 {
				t.Fatal("no payload bytes summed; closures did not run")
			}
			got := 0
			deadline := time.Now().Add(10 * time.Second)
			for got < n && time.Now().Before(deadline) {
				runtime.GC()
				for {
					select {
					case <-collected:
						got++
						continue
					default:
					}
					break
				}
			}
			if got < n {
				t.Fatalf("only %d/%d captures collected after drain: queue retains fired closures", got, n)
			}
			runtime.KeepAlive(drain) // the drained queue itself stayed reachable throughout
		})
	}
}
