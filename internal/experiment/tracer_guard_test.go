package experiment

import (
	"strings"
	"testing"

	"innercircle/internal/faults"
	"innercircle/internal/trace"
)

// TestSweepsRejectSharedTracer guards the tracer-ownership rule: a Tracer
// belongs to exactly one replica, so a sweep base config carrying one —
// which every parallel worker would copy by pointer and write into
// concurrently — is rejected up front rather than racing at runtime, and
// so is a replica spec carrying one, whose bytes cannot carry it.
func TestSweepsRejectSharedTracer(t *testing.T) {
	base := tinyCampaign()
	base.Tracer = trace.New(0)

	_, err := RunGrid(&GridRequest{Kind: GridBlackhole, Blackhole: &base, Malicious: []int{0}, Levels: []int{1}, Runs: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "Tracer") {
		t.Fatalf("blackhole grid accepted a shared tracer (err = %v)", err)
	}

	_, err = RunGrid(&GridRequest{Kind: GridCampaign, Blackhole: &base,
		Campaigns: []faults.Campaign{faults.BlackholePreset(0)}, Levels: []int{1}, Runs: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "Tracer") {
		t.Fatalf("campaign grid accepted a shared tracer (err = %v)", err)
	}

	_, _, err = ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: &base}.Run()
	if err == nil || !strings.Contains(err.Error(), "Tracer") {
		t.Fatalf("replica spec accepted a tracer (err = %v)", err)
	}
}

// TestPerReplicaTracerIsFine pins the supported pattern: each replica
// constructs and owns its own tracer, which records the run without
// changing it.
func TestPerReplicaTracerIsFine(t *testing.T) {
	cfg := tinyCampaign()
	untraced, err := RunBlackhole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = trace.New(0)
	traced, err := RunBlackhole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := cfg.Tracer.Counts()
	if len(counts) == 0 {
		t.Fatal("per-replica tracer recorded nothing")
	}
	// The tracer is an observer: cmd/icsim prints a traced run's numbers
	// as the scenario's.
	if traced != untraced {
		t.Fatalf("tracing changed the result:\n%+v\nvs\n%+v", traced, untraced)
	}
}
