package aodv

import (
	"testing"

	"innercircle/internal/link"
)

// TestRouteRefreshAllocs pins a route update on a known destination to
// no allocation: updateRoute rewrites the entry in place, fresher
// information and a table entry invalidated by a RERR alike.
func TestRouteRefreshAllocs(t *testing.T) {
	r := buildPlain(t, linePts(2)).routers[0]
	const dst link.NodeID = 1
	seq := uint32(1)
	r.updateRoute(dst, dst, seq, true, 1)
	// Every other refresh follows a RERR that invalidated the entry; the
	// rest replace a valid entry with a fresher one.
	calls := 0
	refresh := func() {
		calls++
		seq++
		if calls%2 == 0 {
			r.invalidate(dst, seq)
			seq++
		}
		r.updateRoute(dst, dst, seq, true, 1)
	}
	if got := testing.AllocsPerRun(100, refresh); got != 0 {
		t.Fatalf("refreshing a known route allocates %v times, want 0", got)
	}
	if rt := r.routes[dst]; !r.HasRoute(dst) || rt.dstSeq != seq {
		t.Fatalf("route after the last refresh: %+v, want valid with seq %d", *rt, seq)
	}
}
