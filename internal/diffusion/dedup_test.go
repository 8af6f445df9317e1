package diffusion

import (
	"testing"

	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// TestFloodRepeatDoesNotAllocate: re-receiving a (src, seq) the node has
// seen — what every node does for every neighbour's rebroadcast —
// allocates nothing. FuzzFloodDedupDifferential in package link checks the
// dedup verdicts themselves.
func TestFloodRepeatDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FloodData = true
	s, err := New(cfg, Deps{ID: 0, K: sim.NewKernel()})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSink(true)
	env := link.Env{From: 3, To: link.BroadcastID, Msg: DataMsg{Src: 70, Seq: 130, Payload: payload{size: 8}}, Hops: 1}
	s.HandleEnv(env)
	if allocs := testing.AllocsPerRun(100, func() { s.HandleEnv(env) }); allocs != 0 {
		t.Errorf("%v allocations per repeated reception, want 0", allocs)
	}
	if s.Stats.DataDelivered != 1 {
		t.Fatalf("delivered %d copies, want the first only", s.Stats.DataDelivered)
	}
}
