package vote

import (
	"testing"
	"testing/quick"

	"innercircle/internal/link"
)

func TestLevelForKnownCases(t *testing.T) {
	tests := []struct {
		n, fb, fc, fl int
		want          int
	}{
		{10, 0, 0, 0, 9}, // no failures: everyone must agree
		{10, 2, 1, 1, 5}, // F = 4: L = 10 - 4 - 1
		{4, 1, 0, 0, 2},
		{2, 0, 0, 0, 1}, // minimum viable circle
	}
	for _, tt := range tests {
		got, err := LevelFor(tt.n, tt.fb, tt.fc, tt.fl)
		if err != nil {
			t.Fatalf("LevelFor(%d,%d,%d,%d): %v", tt.n, tt.fb, tt.fc, tt.fl, err)
		}
		if got != tt.want {
			t.Errorf("LevelFor(%d,%d,%d,%d) = %d, want %d", tt.n, tt.fb, tt.fc, tt.fl, got, tt.want)
		}
	}
}

func TestLevelForErrors(t *testing.T) {
	if _, err := LevelFor(1, 0, 0, 0); err == nil {
		t.Error("1-node circle accepted")
	}
	if _, err := LevelFor(5, -1, 0, 0); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := LevelFor(5, 2, 2, 1); err == nil {
		t.Error("over-budget failures accepted (L would be < 1)")
	}
}

// Property: a completed round always has T = L − fb >= 1 non-Byzantine
// approvals when the failure budget leaves any slack.
func TestPropertyNonByzantineFloor(t *testing.T) {
	f := func(nRaw, fbRaw, fcRaw uint8) bool {
		n := 3 + int(nRaw%15)
		fb := int(fbRaw) % n
		fc := int(fcRaw) % n
		l, err := LevelFor(n, fb, fc, 0)
		if err != nil {
			return true // infeasible budget; nothing to check
		}
		tMin := MinNonByzantine(l, fb)
		// T = L - fb = n - 2fb - fc - 1; must be consistent.
		return tMin == max(0, n-2*fb-fc-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByzantineLevel(t *testing.T) {
	tests := []struct {
		n    int
		want int // L+1 = ceil(2n/3)
	}{
		{4, 2},  // ceil(8/3)=3 -> L=2; tolerates 4/3-1 = 0... minimum config
		{6, 3},  // ceil(4) -> L=3
		{9, 5},  // ceil(6) -> L=5
		{10, 6}, // ceil(20/3)=7 -> L=6
		{12, 7},
	}
	for _, tt := range tests {
		got, err := ByzantineLevel(tt.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("ByzantineLevel(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
	if _, err := ByzantineLevel(3); err == nil {
		t.Error("n=3 accepted for Byzantine agreement")
	}
}

// TestCrashToleranceEndToEnd injects crashes into a live voting round:
// with L = N − F − 1, the round still completes when F voters are dead.
func TestCrashToleranceEndToEnd(t *testing.T) {
	const n = 6
	const crashes = 2
	l, err := LevelFor(n, 0, crashes, 0)
	if err != nil {
		t.Fatal(err)
	}
	agreed := 0
	net := buildVote(t, n, detConfig(l), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(AgreedMsg) { agreed++ },
		}
	})
	// Crash two voters before the round starts.
	for _, idx := range []int{4, 5} {
		net.macs[idx].Transceiver().SetDown(true)
	}
	if err := net.svcs[0].Propose([]byte("survives crashes")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if agreed == 0 {
		t.Fatalf("round failed despite L=%d sized for %d crashes", l, crashes)
	}
}

// TestTerminationOnTooManyCrashes verifies the Termination property's
// failure side: when more voters crash than the level tolerates, the
// center's round fails cleanly by timeout instead of hanging.
func TestTerminationOnTooManyCrashes(t *testing.T) {
	const n = 5
	var failed int
	net := buildVote(t, n, detConfig(4), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:         func(link.NodeID, []byte) bool { return true },
			OnRoundFailed: func([]byte, string) { failed++ },
		}
	})
	for _, idx := range []int{2, 3, 4} {
		net.macs[idx].Transceiver().SetDown(true)
	}
	if err := net.svcs[0].Propose([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(10); err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("round failures = %d, want exactly 1 (clean termination)", failed)
	}
}
