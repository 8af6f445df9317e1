package sim

import (
	"errors"
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
// the total order the wheel queue promises — and models a Batch as what it
// stands for: one event per item, under the sequence number the item took
// when it was added. So any divergence is a determinism bug in the wheel or
// in the batch's inline continuation. The script is pure data (four bytes per
// operation), which makes it a native fuzz target: `go test` replays the
// seed corpus, `go test -fuzz FuzzQueueDifferential` explores beyond it.

type diffOpKind int

const (
	opFire         diffOpKind = iota // ScheduleFire
	opFireArg                        // a batch of one item: a posted radio registration's shape
	opFireHandle                     // ScheduleFireHandle, remembers the handle
	opCancelHandle                   // CancelHandle on a previous handle (possibly already fired)
	opRun                            // Run(now + horizon)
	opBatch                          // NewBatch, 1–8 items, Schedule
	opBatchStop                      // opBatch whose chosen item calls Stop
	opStep                           // one bare Step
	opRunLimit                       // Run(now + horizon) under an observer that ends it after n events, maybe mid-batch
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
	// items are a batch's item delays in Add order, and stopAt the index of
	// the item whose callback calls Stop (opBatchStop only).
	items  []Duration
	stopAt int
	// limit is opRunLimit's event budget: its observer fails the run on
	// the limit-th event.
	limit uint64
}

// decodeScript reads one operation per four bytes: kind, delay index, and a
// 16-bit argument (cancel target, tie-burst size for opFire, event budget
// for opRunLimit). A batch's argument packs its item count (bits 0–2, plus
// one), the stride between its items' delay indexes (bits 3–6, so stride 0
// puts every item on one timestamp) and its Stop item (bits 7–9, modulo
// the count). Every byte string decodes to a valid script.
func decodeScript(data []byte) []diffOp {
	n := min(len(data)/4, maxDiffOps)
	ops := make([]diffOp, n)
	for i := range ops {
		b := data[4*i:]
		arg := int(b[2]) | int(b[3])<<8
		op := diffOp{
			kind:    diffOpKind(b[0]) % numDiffOps,
			delay:   diffDelays[int(b[1])%len(diffDelays)],
			target:  arg,
			repeats: 1 + arg%4,
			limit:   1 + uint64(arg%16),
		}
		if op.kind == opBatch || op.kind == opBatchStop {
			count, stride := 1+arg&7, arg>>3&15
			for j := 0; j < count; j++ {
				op.items = append(op.items, diffDelays[(int(b[1])+j*stride)%len(diffDelays)])
			}
			op.stopAt = (arg >> 7 & 7) % count
		}
		ops[i] = op
	}
	return ops
}

// batchArg packs a batch's item count (1–8), delay-index stride and Stop
// item into decodeScript's argument.
func batchArg(count, stride, stopAt int) int { return (count-1)&7 | (stride&15)<<3 | (stopAt&7)<<7 }

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

// diffBatchScript is diffScript with batches in the mix: batches of 1–8
// items spread over the delay table or stacked on one timestamp, some
// stopping the run from inside an item, bare Steps, and Runs an observer
// ends after a few events, among the standing single events and cancels a batch must order
// against.
func diffBatchScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, 4*n)
	op := func(kind diffOpKind, delayIdx, arg int) {
		out = append(out, byte(kind), byte(delayIdx), byte(arg), byte(arg>>8))
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(20); {
		case r < 3:
			op(opFire, rng.Intn(len(diffDelays)), rng.Intn(4))
		case r < 6:
			op(opFireHandle, rng.Intn(len(diffDelays)), 0)
		case r < 8:
			op(opCancelHandle, 0, rng.Intn(1+i))
		case r < 13:
			op(opBatch, rng.Intn(len(diffDelays)), batchArg(1+rng.Intn(8), rng.Intn(16), 0))
		case r < 14:
			op(opBatchStop, rng.Intn(len(diffDelays)), batchArg(1+rng.Intn(8), rng.Intn(16), rng.Intn(8)))
		case r < 16:
			op(opStep, 0, 0)
		case r < 17:
			op(opRunLimit, rng.Intn(len(diffDelays)), rng.Intn(16))
		default:
			op(opRun, rng.Intn(len(diffDelays)), 0)
		}
	}
	return out
}

// diffBatchCases are hand-written scripts, one per batch corner case, as
// (kind, delay index, argument) triples. Delay indexes: 0 and 1 are zero,
// 2 is 1 ns, 3 is 5 µs, 4 is 10 µs, 5 is 50 µs, 6 is 200 µs, 7 is 1 ms, 8 is
// 20 ms, 9 is 0.5 s, 10 is 3 s.
var diffBatchCases = []struct {
	name string
	ops  [][3]int
}{
	// Standing events on the items' timestamps: each item runs after the
	// events scheduled before it was added and before those scheduled
	// after. The first batch stacks four items on 1 ms; the second puts two
	// on the current instant (indexes 0, 1) and two just after.
	{"equal-timestamps", [][3]int{
		{int(opFire), 0, 2},
		{int(opFire), 7, 1},
		{int(opBatch), 7, batchArg(4, 0, 0)},
		{int(opBatch), 0, batchArg(4, 1, 0)},
		{int(opFire), 0, 1},
		{int(opFire), 7, 1},
		{int(opRun), 9, 0},
	}},
	// A Run horizon between a batch's items: items at 5 µs, 50 µs, 1 ms,
	// 0.5 s and a horizon at 200 µs park the clock inside the batch; an
	// event scheduled then (20 ms on) lands between its remaining items.
	{"horizon-cuts-batch", [][3]int{
		{int(opBatch), 3, batchArg(4, 2, 0)},
		{int(opRun), 6, 0},
		{int(opFire), 8, 0},
		{int(opRun), 2, 0},
		{int(opRun), 10, 0},
	}},
	// Stop inside the second of five items (1 ms, 20 ms, 0.5 s, 3 s, 600 s):
	// the run ends after that item, the clock stays there, and the next
	// Runs resume with the third.
	{"stop-mid-batch", [][3]int{
		{int(opFire), 7, 0},
		{int(opBatchStop), 7, batchArg(5, 1, 1)},
		{int(opRun), 10, 0},
		{int(opRun), 2, 0},
		{int(opRun), 10, 0},
	}},
	// An observer ending the run on its third event: it trips after the
	// standing event and two of eight items stacked on one timestamp.
	{"limit-mid-batch", [][3]int{
		{int(opBatch), 4, batchArg(8, 0, 0)},
		{int(opFire), 3, 0},
		{int(opRunLimit), 10, 2},
		{int(opRun), 10, 0},
	}},
	// Bare Steps run exactly one item each, also when a single event sorts
	// between two items.
	{"step-one-item", [][3]int{
		{int(opBatch), 3, batchArg(3, 2, 0)},
		{int(opFire), 4, 0},
		{int(opStep), 0, 0}, {int(opStep), 0, 0}, {int(opStep), 0, 0},
		{int(opBatch), 0, batchArg(1, 0, 0)},
		{int(opStep), 0, 0}, {int(opStep), 0, 0}, {int(opStep), 0, 0},
	}},
}

// encodeOps packs (kind, delay index, argument) triples as decodeScript
// reads them.
func encodeOps(ops [][3]int) []byte {
	out := make([]byte, 0, 4*len(ops))
	for _, op := range ops {
		out = append(out, byte(op[0]), byte(op[1]), byte(op[2]), byte(op[2]>>8))
	}
	return out
}

// refEvent and refKernel are the reference model: a slice kept sorted by
// (time, seq), cancellation by tombstone, the clock, Stop and the
// observer rules of Kernel.Run. A batch item is one refEvent; stops names the items
// whose callback calls Stop.
type refEvent struct {
	at    Time
	label string
	dead  bool // fired or cancelled
}

type refKernel struct {
	now       Time
	q         []*refEvent
	processed uint64
	budget    uint64 // events opRunLimit's observer lets run; 0 for no observer
	stops     map[string]bool
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

// head retires cancelled events and returns the first live one, or nil.
func (r *refKernel) head() *refEvent {
	for len(r.q) > 0 && r.q[0].dead {
		r.q = r.q[1:]
	}
	if len(r.q) == 0 {
		return nil
	}
	return r.q[0]
}

// step fires the head and reports whether its callback stops the run.
func (r *refKernel) step(fire func(label string)) (stop bool) {
	ev := r.head()
	r.q = r.q[1:]
	ev.dead = true
	r.now = ev.at
	r.processed++
	fire(ev.label)
	return r.stops[ev.label]
}

// run mirrors Kernel.Run and reports whether the observer's error ended
// it: the observer sees every event after it ran, a Stop's included.
func (r *refKernel) run(until Time, fire func(label string)) (limited bool) {
	stopped := false
	for !stopped {
		if ev := r.head(); ev == nil || ev.at > until {
			break
		}
		stopped = r.step(fire)
		if r.budget > 0 {
			if r.budget--; r.budget == 0 {
				return true
			}
		}
	}
	if r.now < until && until != Never && !stopped {
		r.now = until
	}
	return false
}

// errDiffLimit is opRunLimit's observer error.
var errDiffLimit = errors.New("event budget spent")

// diffReplay applies the script to a fresh kernel and to the reference in
// lockstep. Every scheduled callback logs a label unique to its issuing op
// (and item) together with the clock it fired at, so identical traces mean
// identical fire order, not merely identical counts.
func diffReplay(t *testing.T, ops []diffOp) {
	t.Helper()
	k := NewKernel()
	ref := &refKernel{stops: map[string]bool{}}
	var got, want []string
	logf := func(label string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%v", label, k.Now())) }
	}
	logArg := func(a any) { got = append(got, fmt.Sprintf("%s@%v", a.(string), k.Now())) }
	logItem := func(a any) {
		logArg(a)
		if ref.stops[a.(string)] {
			k.Stop()
		}
	}
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
			b := k.NewBatch(logArg)
			b.Add(op.delay, label)
			b.Schedule()
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
		case opBatch, opBatchStop:
			b := k.NewBatch(logItem)
			for j, d := range op.items {
				label := fmt.Sprintf("batch%d.%d", i, j)
				if op.kind == opBatchStop && j == op.stopAt {
					ref.stops[label] = true
				}
				b.Add(d, label)
				ref.schedule(d, label)
			}
			b.Schedule()
		case opStep:
			stepped := k.Step()
			if ref.head() != nil {
				ref.step(refFire)
			} else if stepped {
				t.Fatalf("op %d: Step ran an event, the reference has none", i)
			}
			compare(i)
		case opRun, opRunLimit:
			until := k.Now() + op.delay
			if op.kind == opRunLimit {
				left := op.limit
				k.OnFire(func(Time) error {
					if left--; left == 0 {
						return errDiffLimit
					}
					return nil
				})
				ref.budget = op.limit
			}
			err := k.Run(until)
			if limited := ref.run(until, refFire); limited != (err != nil) {
				t.Fatalf("op %d: Run error %v, reference limited=%t", i, err, limited)
			}
			k.OnFire(nil)
			ref.budget = 0
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
// seed corpus is 30 seeded 400-op scripts of single events, 10 with
// batches in the mix (diffBatchScript), and one hand-written script per
// batch corner case (diffBatchCases).
func FuzzQueueDifferential(f *testing.F) {
	for seed := int64(1); seed <= 30; seed++ {
		f.Add(diffScript(seed, 400))
	}
	for seed := int64(31); seed <= 40; seed++ {
		f.Add(diffBatchScript(seed, 400))
	}
	for _, c := range diffBatchCases {
		f.Add(encodeOps(c.ops))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		diffReplay(t, decodeScript(script))
	})
}
