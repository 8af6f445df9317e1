package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The differential test drives the kernel and a reference model with an
// identical scripted stream of schedule/cancel/fire operations and asserts
// the fire orders, cancel verdicts, clocks and kernel stats match exactly.
// The reference keeps its pending events in a slice sorted by (time, seq) —
// the total order the wheel queue promises — so any divergence is a
// determinism bug in the wheel. The script is pure data (four bytes per
// operation), which makes it a native fuzz target: `go test` replays the
// seed corpus, `go test -fuzz FuzzQueueDifferential` explores beyond it.

type diffOpKind int

const (
	opFire         diffOpKind = iota // ScheduleFire
	opFireArg                        // ScheduleFireArg
	opFireHandle                     // ScheduleFireHandle, remembers the handle
	opCancelHandle                   // CancelHandle on a previous handle (possibly already fired)
	opRun                            // Run(now + horizon)
	numDiffOps
)

// diffDelays are the schedule delays and Run horizons a script draws from:
// zero-delay events, sub-quantum separations, every wheel level, and
// far-future overflow timers.
var diffDelays = []Duration{
	0, 0, 1e-9, 5e-6, 1e-5, 5e-5, 2e-4, 1e-3, 0.02, 0.5, 3, 600, 1e7,
}

// maxDiffOps bounds a fuzz input's replay cost.
const maxDiffOps = 4096

type diffOp struct {
	kind    diffOpKind
	delay   Duration // schedule delay, or Run horizon
	target  int      // index into issued handles for opCancelHandle
	repeats int      // same-tick tie burst: schedule this many at one timestamp
}

// decodeScript reads one operation per four bytes: kind, delay index, and a
// 16-bit argument (cancel target, or tie-burst size for opFire). Every byte
// string decodes to a valid script.
func decodeScript(data []byte) []diffOp {
	n := min(len(data)/4, maxDiffOps)
	ops := make([]diffOp, n)
	for i := range ops {
		b := data[4*i:]
		arg := int(b[2]) | int(b[3])<<8
		ops[i] = diffOp{
			kind:    diffOpKind(b[0]) % numDiffOps,
			delay:   diffDelays[int(b[1])%len(diffDelays)],
			target:  arg,
			repeats: 1 + arg%4,
		}
	}
	return ops
}

// diffScript builds a deterministic encoded operation stream exercising the
// corner cases a queue gets wrong first: same-tick ties, zero-delay events,
// sub-quantum separations, far-future overflow timers, cancels of
// already-fired handles, and Run horizons that park the clock
// between events.
func diffScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, 4*n)
	op := func(kind diffOpKind, delayIdx, arg int) {
		out = append(out, byte(kind), byte(delayIdx), byte(arg), byte(arg>>8))
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 2:
			op(opFire, rng.Intn(len(diffDelays)), rng.Intn(4))
		case r < 3:
			op(opFireArg, rng.Intn(len(diffDelays)), 0)
		case r < 7:
			op(opFireHandle, rng.Intn(len(diffDelays)), 0)
		case r < 9:
			op(opCancelHandle, 0, rng.Intn(1+i))
		default:
			op(opRun, rng.Intn(len(diffDelays)), 0)
		}
	}
	return out
}

// refEvent and refKernel are the reference model: a slice kept sorted by
// (time, seq), cancellation by tombstone, the clock rules of Kernel.Run.
type refEvent struct {
	at    Time
	label string
	dead  bool // fired or cancelled
}

type refKernel struct {
	now       Time
	q         []*refEvent
	processed uint64
}

// schedule inserts after every event at the same timestamp: sequence
// numbers only grow, so that is exactly (time, seq) order.
func (r *refKernel) schedule(delay Duration, label string) *refEvent {
	ev := &refEvent{at: r.now + delay, label: label}
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > ev.at })
	r.q = slices.Insert(r.q, i, ev)
	return ev
}

func (r *refKernel) cancel(ev *refEvent) bool {
	if ev.dead {
		return false
	}
	ev.dead = true
	return true
}

func (r *refKernel) run(until Time, fire func(label string)) {
	for len(r.q) > 0 && r.q[0].at <= until {
		ev := r.q[0]
		r.q = r.q[1:]
		if ev.dead {
			continue // cancelled: retired without advancing the clock
		}
		ev.dead = true
		r.now = ev.at
		r.processed++
		fire(ev.label)
	}
	if r.now < until && until != Never {
		r.now = until
	}
}

// diffReplay applies the script to a fresh kernel and to the reference in
// lockstep. Every scheduled callback logs a label unique to its issuing op
// together with the clock it fired at, so identical traces mean identical
// fire order, not merely identical counts.
func diffReplay(t *testing.T, ops []diffOp) {
	t.Helper()
	k := NewKernel()
	ref := &refKernel{}
	var got, want []string
	logf := func(label string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%v", label, k.Now())) }
	}
	logArg := func(a any) { got = append(got, fmt.Sprintf("%s@%v", a.(string), k.Now())) }
	refFire := func(label string) { want = append(want, fmt.Sprintf("%s@%v", label, ref.now)) }
	compare := func(i int) {
		t.Helper()
		if !slices.Equal(got, want) {
			for j := 0; j < len(got) && j < len(want); j++ {
				if got[j] != want[j] {
					t.Fatalf("op %d: fire traces diverge at %d: kernel %q, reference %q", i, j, got[j], want[j])
				}
			}
			t.Fatalf("op %d: kernel fired %d events, reference %d", i, len(got), len(want))
		}
		if k.Now() != ref.now || k.Processed() != ref.processed {
			t.Fatalf("op %d: kernel now=%v processed=%d, reference now=%v processed=%d",
				i, k.Now(), k.Processed(), ref.now, ref.processed)
		}
		got, want = got[:0], want[:0]
	}

	var handles []TimerHandle
	var refHandles []*refEvent
	for i, op := range ops {
		switch op.kind {
		case opFire:
			for r := 0; r < op.repeats; r++ {
				label := fmt.Sprintf("fire%d.%d", i, r)
				k.ScheduleFire(op.delay, logf(label))
				ref.schedule(op.delay, label)
			}
		case opFireArg:
			label := fmt.Sprintf("arg%d", i)
			k.ScheduleFireArg(op.delay, logArg, label)
			ref.schedule(op.delay, label)
		case opFireHandle:
			label := fmt.Sprintf("hfire%d", i)
			handles = append(handles, k.ScheduleFireHandle(op.delay, logf(label)))
			refHandles = append(refHandles, ref.schedule(op.delay, label))
		case opCancelHandle:
			if len(handles) > 0 {
				j := op.target % len(handles)
				if g, w := k.CancelHandle(handles[j]), ref.cancel(refHandles[j]); g != w {
					t.Fatalf("op %d: CancelHandle = %t, reference %t", i, g, w)
				}
			}
		case opRun:
			until := k.Now() + op.delay
			if err := k.Run(until); err != nil {
				t.Fatalf("Run: %v", err)
			}
			ref.run(until, refFire)
			compare(i)
		}
	}
	if err := k.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	ref.run(Never, refFire)
	compare(len(ops))
}

// FuzzQueueDifferential replays encoded scripts against the kernel and the
// sorted-slice reference and requires byte-identical traces and stats. The
// seed corpus is 30 seeded 400-op scripts.
func FuzzQueueDifferential(f *testing.F) {
	for seed := int64(1); seed <= 30; seed++ {
		f.Add(diffScript(seed, 400))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		diffReplay(t, decodeScript(script))
	})
}
