package sim

// Hierarchical timer wheel (Varghese & Lauck), the kernel's event queue.
// A binary heap pays O(log n) per schedule and per pop against the whole
// pending set; at 100k-node scale that set holds tens of thousands of
// recurring near-future timers (MAC SIFS/DIFS/backoff, STS beacons,
// traffic epochs), and the pointer-chasing sift dominated single-kernel
// profiles. The wheel makes schedule and fire amortized O(1) by hashing
// events into time buckets:
//
//   - the tick quantum is 2^-wheelTickBits seconds ≈ 7.6 µs, a power of
//     two sized just under the MAC timing quantum min(SIFS, DIFS) = 10 µs
//     at the default 802.11-style parameters — two events separated by a
//     full MAC turnaround land in different buckets, so buckets stay small
//     under MAC-driven load;
//   - level 0 has 256 slots of one tick (≈ 1.95 ms coverage): backoffs,
//     interframe spaces, ACK timeouts;
//   - level 1 has 64 slots of 256 ticks (≈ 125 ms coverage): route
//     timeouts, voting deadlines; its slots cascade into level 0 as the
//     wheel reaches them;
//   - an overflow heap (the plain eventHeap comparator) holds everything
//     farther out: beacon periods, traffic epochs, fault windows. A far
//     event pays one O(log f) overflow insert and one pop when its level-1
//     page is pulled across — once per lifetime, not per queue operation.
//
// Determinism contract. The pop order must be the exact (time, seq) total
// order — shard border merge, ErrShardTie detection, and every equivalence
// test depend on it. Bucketing
// by tick preserves time order between buckets (tickOf is monotone: the
// multiply by a power of two is exact, so no rounding can reorder two
// times), and within a bucket the events drain through `run`, a small
// eventHeap ordered by the very same comparator. `run` holds every event
// at tick <= the wheel's current position; because an event at tick t has
// at < (t+1)·quantum and every event still in the wheel has a strictly
// larger tick, run's maximum never overlaps the wheel's minimum and the
// merged order is exact.
//
// Cancellation is lazy everywhere: a cancelled event keeps its bucket and
// is retired when it reaches the front (Kernel.peekLive), so the wheel
// needs no removal operation.

import "math/bits"

const (
	// wheelTickBits sets the tick quantum to 2^-wheelTickBits seconds.
	wheelTickBits = 17
	// wheelBits0/wheelBits1 size the two wheel levels.
	wheelBits0  = 8
	wheelBits1  = 6
	wheelSlots0 = 1 << wheelBits0
	wheelSlots1 = 1 << wheelBits1
	// wheelMaxTick caps the tick index so converting enormous timestamps
	// (up to Never) to uint64 stays defined. Events clamped here all route
	// to the overflow heap — or, should the wheel position itself ever
	// reach the cap, into run, where the exact comparator still orders
	// them correctly.
	wheelMaxTick = uint64(1) << 62
)

// wheelInv converts seconds to ticks; multiplying by a power of two only
// adjusts the float's exponent, so the conversion is exact and monotone.
const wheelInv = float64(uint64(1) << wheelTickBits)

// wheelTickOf maps a timestamp to its tick index.
func wheelTickOf(at Time) uint64 {
	f := float64(float64(at) * wheelInv)
	if f >= float64(wheelMaxTick) {
		return wheelMaxTick
	}
	return uint64(f)
}

// wheelQueue is the hierarchical timer wheel. The zero value is not
// usable; use newWheelQueue.
type wheelQueue struct {
	// tick is the wheel position: every event at a tick at or below it
	// lives in run, every later event in the wheels or the overflow heap.
	tick uint64
	// run drains the current bucket (and any event scheduled at or behind
	// the wheel position) in exact (time, seq) order.
	run eventHeap
	// Level 0: one-tick slots. occ0 is the occupancy bitmap; every
	// occupied slot index is strictly ahead of the wheel position within
	// the current 256-tick page, so the lowest set bit is always the next
	// slot to drain.
	slots0 [wheelSlots0][]*event
	occ0   [wheelSlots0 / 64]uint64
	// Level 1: 256-tick slots covering the current 16384-tick page.
	slots1 [wheelSlots1][]*event
	occ1   uint64
	// overflow holds events beyond the level-1 page, in heap order.
	overflow eventHeap
	// size counts queued events across run, both levels, and overflow.
	size int
}

func newWheelQueue() *wheelQueue { return &wheelQueue{} }

func (w *wheelQueue) len() int { return w.size }

// place routes ev to run, a wheel slot, or the overflow heap, relative to
// the current wheel position. It does not touch size (push does), so the
// cascade paths can reuse it.
func (w *wheelQueue) place(ev *event) {
	t := wheelTickOf(ev.at)
	if t <= w.tick {
		w.run.push(ev)
		return
	}
	if t>>wheelBits0 == w.tick>>wheelBits0 {
		i := t & (wheelSlots0 - 1)
		w.slots0[i] = append(w.slots0[i], ev)
		w.occ0[i>>6] |= 1 << (i & 63)
		return
	}
	if t>>(wheelBits0+wheelBits1) == w.tick>>(wheelBits0+wheelBits1) {
		j := (t >> wheelBits0) & (wheelSlots1 - 1)
		w.slots1[j] = append(w.slots1[j], ev)
		w.occ1 |= 1 << j
		return
	}
	w.overflow.push(ev)
}

// push enqueues ev.
func (w *wheelQueue) push(ev *event) {
	w.size++
	w.place(ev)
}

// peek returns the minimum event without removing it, or nil when empty.
func (w *wheelQueue) peek() *event {
	if len(w.run) > 0 {
		return w.run[0]
	}
	if w.size == 0 {
		return nil
	}
	w.advance()
	return w.run[0]
}

// pop removes and returns the minimum event. The queue must be non-empty.
func (w *wheelQueue) pop() *event {
	if len(w.run) == 0 {
		w.advance()
	}
	w.size--
	return w.run.pop()
}

// advance moves the wheel position to the tick of the earliest queued
// event and fills run with that bucket. It must only be called with run
// empty and size > 0, and guarantees run is non-empty on return.
//
// Moving the position forward during a peek is safe: the kernel clock can
// only reach the returned event's timestamp, so nothing can later be
// scheduled behind the new position — and even an event scheduled at a
// tick the position already passed (a Run(until) horizon stopping short of
// the next event) lands in run, whose comparator orders it exactly.
func (w *wheelQueue) advance() {
	for {
		// Level 0: the lowest occupied slot is the next bucket.
		for wi, word := range w.occ0 {
			if word == 0 {
				continue
			}
			i := uint64(wi<<6 | bits.TrailingZeros64(word))
			w.tick = w.tick&^uint64(wheelSlots0-1) | i
			w.occ0[wi] = word & (word - 1)
			evs := w.slots0[i]
			w.slots0[i] = evs[:0]
			for n, ev := range evs {
				w.run.push(ev)
				evs[n] = nil // release the reference: fired closures must not linger in the slot's backing array
			}
			return
		}
		// Level 0 exhausted: cascade the next level-1 slot into it. Every
		// event in that slot re-routes within the slot's own 256-tick page
		// (to run when it sits exactly on the page start).
		if w.occ1 != 0 {
			j := uint64(bits.TrailingZeros64(w.occ1))
			w.occ1 &= w.occ1 - 1
			w.tick = w.tick&^uint64(wheelSlots0*wheelSlots1-1) | j<<wheelBits0
			evs := w.slots1[j]
			w.slots1[j] = evs[:0]
			for n, ev := range evs {
				w.place(ev)
				evs[n] = nil
			}
			if len(w.run) > 0 {
				return
			}
			continue
		}
		// Both levels empty: jump to the overflow minimum's level-1 page
		// and pull everything on that page across. The minimum itself
		// lands in run (its tick equals the new position), so the loop
		// terminates; later overflow events stay behind until their page
		// is reached.
		w.tick = wheelTickOf(w.overflow[0].at)
		page := w.tick >> (wheelBits0 + wheelBits1)
		for len(w.overflow) > 0 && wheelTickOf(w.overflow[0].at)>>(wheelBits0+wheelBits1) == page {
			w.place(w.overflow.pop())
		}
		if len(w.run) > 0 {
			return
		}
	}
}
