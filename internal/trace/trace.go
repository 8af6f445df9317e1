// Package trace provides wire-level event tracing for simulated networks:
// a bounded in-memory event log fed by link-layer observers, with
// per-message-type counters. It exists for debugging protocol runs and for
// the cmd tools' -trace flags; tracing off (a nil Tracer) costs nothing.
package trace

import (
	"fmt"
	"io"
	"sort"

	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// Dir distinguishes transmitted from received events.
type Dir int

// Directions.
const (
	Out Dir = iota + 1
	In
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case Out:
		return "tx"
	case In:
		return "rx"
	default:
		return "??"
	}
}

// Event is one observed message.
type Event struct {
	At    sim.Time
	Node  link.NodeID
	Dir   Dir
	Peer  link.NodeID // destination (tx) or source (rx)
	Type  string      // Go type name of the message
	Bytes int
}

// String renders one log line.
func (e Event) String() string {
	arrow := "->"
	if e.Dir == In {
		arrow = "<-"
	}
	return fmt.Sprintf("%12.6f node %3d %s %3d  %-24s %4d B", float64(e.At), e.Node, arrow, e.Peer, e.Type, e.Bytes)
}

// Tracer accumulates events up to a capacity (older events are dropped
// first) and counts every message type seen. Not safe for concurrent use —
// simulations are single-threaded, so a Tracer must be owned by exactly
// one replica. In particular, never put one Tracer into a sweep's base
// config: the parallel worker pool runs replicas concurrently, and a
// shared tracer's event and counter maps would race. The sweep entry
// points reject such configs; single-replica runs (RunBlackhole with a
// hand-built config, the cmd tools' -trace flags) are the intended users.
type Tracer struct {
	now func() sim.Time
	cap int
	// events is a ring of at most cap events. Until it fills it is the log
	// in order; after that events[next] is the oldest event and the next
	// one to be overwritten.
	events []Event
	next   int
	counts map[string]uint64
	bytes  map[string]uint64
}

// New returns a tracer that keeps at most capacity events (0 means
// counters only). The clock is bound later (node.Build calls SetClock);
// until then events are stamped zero.
func New(capacity int) *Tracer {
	return &Tracer{
		now:    func() sim.Time { return 0 },
		cap:    capacity,
		counts: make(map[string]uint64),
		bytes:  make(map[string]uint64),
	}
}

// SetClock binds the virtual clock used to timestamp events.
func (t *Tracer) SetClock(now func() sim.Time) { t.now = now }

// record adds one event in O(1): once the log is full, the new event
// overwrites the oldest.
func (t *Tracer) record(node link.NodeID, dir Dir, peer link.NodeID, msg link.Message) {
	name := fmt.Sprintf("%T", msg)
	if dir == Out {
		t.counts[name]++
		t.bytes[name] += uint64(msg.Size())
	}
	if t.cap == 0 {
		return
	}
	e := Event{At: t.now(), Node: node, Dir: dir, Peer: peer, Type: name, Bytes: msg.Size()}
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.next] = e
	t.next = (t.next + 1) % t.cap
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	return append(append([]Event(nil), t.events[t.next:]...), t.events[:t.next]...)
}

// Counts returns transmissions per message type.
func (t *Tracer) Counts() map[string]uint64 {
	out := make(map[string]uint64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// Bytes returns transmitted bytes per message type.
func (t *Tracer) Bytes() map[string]uint64 {
	out := make(map[string]uint64, len(t.bytes))
	for k, v := range t.bytes {
		out[k] = v
	}
	return out
}

// WriteSummary prints per-type transmission counts and bytes, largest
// byte-volume first — the traffic breakdown of a run.
func (t *Tracer) WriteSummary(w io.Writer) {
	type row struct {
		name  string
		n     uint64
		bytes uint64
	}
	rows := make([]row, 0, len(t.counts))
	for name, n := range t.counts {
		rows = append(rows, row{name: name, n: n, bytes: t.bytes[name]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].bytes != rows[j].bytes {
			return rows[i].bytes > rows[j].bytes
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "%-32s %10s %12s\n", "message type", "sent", "bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %10d %12d\n", r.name, r.n, r.bytes)
	}
}

// WriteEvents prints the retained event log, oldest first.
func (t *Tracer) WriteEvents(w io.Writer) {
	for _, e := range t.Events() {
		fmt.Fprintln(w, e)
	}
}

// Attach taps a node's link service: every transmission (including raw
// protocol traffic) and every radio delivery is recorded.
func (t *Tracer) Attach(l *link.Service) {
	node := l.ID()
	l.SetObserver(func(outbound bool, e link.Env) {
		if outbound {
			t.record(node, Out, e.To, e.Msg)
		} else {
			t.record(node, In, e.From, e.Msg)
		}
	})
}
