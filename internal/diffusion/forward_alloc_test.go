//go:build !race

// Allocation counts vary under the race detector, so these pins build
// without it.

package diffusion

import (
	"testing"

	"innercircle/internal/link"
)

// captureTap keeps the last outbound envelope and passes nothing down, so
// what a forward costs ends at the link layer.
type captureTap struct {
	last link.Env
	n    int
}

func (c *captureTap) Outbound(e link.Env, _ func(link.Env))   { c.last, c.n = e, c.n+1 }
func (c *captureTap) Inbound(e link.Env, emit func(link.Env)) { emit(e) }

// TestForwardAllocs pins a flood-data forward and an interest re-flood to
// no allocation: the node re-sends the message it received, and the hop
// count advances in the envelope.
func TestForwardAllocs(t *testing.T) {
	const runs = 100
	// Every message is new: one seq per run, the warm-up run included.
	fresh := func(msg func(seq uint64) link.Message) []link.Env {
		envs := make([]link.Env, runs+1)
		for i := range envs {
			envs[i] = link.Env{From: 0, To: link.BroadcastID, Msg: msg(uint64(i + 1)), Hops: 2}
		}
		return envs
	}
	flood := buildFlood(t, chain(2))
	s, tap := flood.svcs[1], new(captureTap)
	flood.links[1].AddTap(tap)
	const src link.NodeID = 7
	s.seen.Mark(src, 1<<10) // size the source's seen bitset first
	data := fresh(func(seq uint64) link.Message { return DataMsg{Src: src, Sink: 0, Seq: seq, Payload: payload{size: 8}} })
	i := 0
	if got := testing.AllocsPerRun(runs, func() { s.HandleEnv(data[i]); i++ }); got != 0 {
		t.Errorf("a flood-data forward allocates %v times, want 0", got)
	}
	if want := (link.Env{From: s.deps.ID, To: link.BroadcastID, Msg: data[runs].Msg, Hops: 3}); tap.n != runs+1 || tap.last != want {
		t.Fatalf("%d flood forwards, the last %+v, want %d and %+v", tap.n, tap.last, runs+1, want)
	}

	grad := buildDiff(t, chain(2))
	s, tap = grad.svcs[1], new(captureTap)
	grad.links[1].AddTap(tap)
	interests := fresh(func(seq uint64) link.Message { return InterestMsg{Sink: 0, Seq: seq} })
	i = 0
	if got := testing.AllocsPerRun(runs, func() { s.HandleEnv(interests[i]); i++ }); got != 0 {
		t.Errorf("an interest re-flood allocates %v times, want 0", got)
	}
	if want := (link.Env{From: s.deps.ID, To: link.BroadcastID, Msg: interests[runs].Msg, Hops: 3}); tap.n != runs+1 || tap.last != want {
		t.Fatalf("%d interest re-floods, the last %+v, want %d and %+v", tap.n, tap.last, runs+1, want)
	}
	if hops, ok := s.HopsToSink(); !ok || hops != 3 {
		t.Fatalf("gradient depth %d (%v), want 3: two forwards after the sink's send", hops, ok)
	}
}
