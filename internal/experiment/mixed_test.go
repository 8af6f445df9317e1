package experiment

import (
	"testing"

	"innercircle/internal/scenario"
)

// Smoke test for the demo Spec: it runs, carries traffic, injects both
// fault classes, and is deterministic for a fixed seed.
func TestRunMixedSmoke(t *testing.T) {
	run := func() *scenario.Result {
		res, err := RunMixed(30, 7, 60)
		if err != nil {
			t.Fatalf("RunMixed: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Sent == 0 {
		t.Fatal("no traffic sent")
	}
	if a.Faults.Injected == 0 {
		t.Fatal("composite campaign injected nothing")
	}
	if *a != *b {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", *a, *b)
	}
}
