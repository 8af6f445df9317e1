//go:build !race

// Allocation counts vary under the race detector, so these pins build
// without it.

package aodv

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

// TestForwardAllocs pins an RREQ re-flood and a data forward to no
// allocation: the router re-sends the message it received, and the hop
// count advances in the envelope.
func TestForwardAllocs(t *testing.T) {
	const runs = 100
	net := buildPlain(t, linePts(1))
	r, tap := net.routers[0], new(captureTap)
	net.links[0].AddTap(tap)

	// Every request is new: one ID per run, the warm-up run included. The
	// originator's seen bitset is sized first.
	const orig link.NodeID = 7
	r.seen.Mark(orig, 1<<10)
	reqs := make([]link.Env, runs+1)
	for i := range reqs {
		reqs[i] = link.Env{From: 3, To: link.BroadcastID, Msg: RREQ{Orig: orig, OrigSeq: 1, Dst: 9, ID: uint32(i + 1)}, Hops: 4}
	}
	i := 0
	reflood := func() {
		r.HandleEnv(reqs[i])
		i++
	}
	if got := testing.AllocsPerRun(runs, reflood); got != 0 {
		t.Errorf("an RREQ re-flood allocates %v times, want 0", got)
	}
	if want := (link.Env{From: r.deps.ID, To: link.BroadcastID, Msg: reqs[runs].Msg, Hops: 5}); tap.n != runs+1 || tap.last != want {
		t.Fatalf("%d re-floods, the last %+v, want %d and %+v", tap.n, tap.last, runs+1, want)
	}

	const dst, next link.NodeID = 9, 2
	r.updateRoute(dst, next, 1, true, 3)
	data := link.Env{From: 3, To: r.deps.ID, Msg: Data{Src: orig, Dst: dst, Seq: 1, Payload: "p", Bytes: 512}, Hops: 1}
	tap.n = 0
	if got := testing.AllocsPerRun(runs, func() { r.HandleEnv(data) }); got != 0 {
		t.Errorf("a data forward allocates %v times, want 0", got)
	}
	if want := (link.Env{From: r.deps.ID, To: next, Msg: data.Msg, Hops: 2}); tap.n != runs+1 || tap.last != want {
		t.Fatalf("%d data forwards, the last %+v, want %d and %+v", tap.n, tap.last, runs+1, want)
	}
	if r.Stats.RreqForwarded != runs+1 || r.Stats.DataForwarded != runs+1 {
		t.Fatalf("stats %+v, want %d of each forward", r.Stats, runs+1)
	}
}
