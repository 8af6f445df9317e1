package experiment

import (
	"strings"
	"testing"

	"innercircle/internal/artifact"
)

// TestPresetGridsPinned pins the paper grids scripts/repro submits by the
// SHA-256 of their canonical JSON (seed 1, runs 5; full and -quick). The
// literals are what repro's own figures() built at 795be33, before the
// grids moved here, so every replica spec hash — the artifact store's
// dedup key — is where a store populated earlier expects it. The churn
// grid and the shapes cmd/icsweep derives from these presets are pinned
// the same way in cmd/icsweep's tests.
func TestPresetGridsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(seed int64, runs int, quick bool) *GridRequest
		full  string
		quick string
	}{
		{"fig7-blackhole", Fig7Grid,
			"016acc06c7cf0d898a5a65aa5182337bb8cb1eb47f863ae8ecf2d446f4321947",
			"ee3576d7483237c8865844c00bf63b5c959cd2916bce5baaede059d2caf87a25"},
		{"fig8-sensor", Fig8Grid,
			"908acaea2ced5382921c508762dda87c75ad42a8bc9afc81ad95841d644b2683",
			"8051143c0f1b4efd4962c80dc63bb1237b4b39afd336d6bd65a1983adc81fb7a"},
		{"campaign-coverage", CoverageGrid,
			"98979f9e760ae680537b8bec816adffc24836080c45696340995820edcf0ec23",
			"cfe49d9e0ba0a48dfbf50abbcf2ed36e757681d0fe8669328aa3f62f43d2245b"},
	} {
		for quick, want := range map[bool]string{false: tc.full, true: tc.quick} {
			g := tc.build(1, 5, quick)
			if g.Name != tc.name {
				t.Errorf("preset named %q, want %q", g.Name, tc.name)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("%s quick=%v: %v", tc.name, quick, err)
			}
			b, err := artifact.Canonical(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := artifact.Sum(b); got != want {
				t.Errorf("%s quick=%v: canonical hash %s, want %s\n%s", tc.name, quick, got, want, b)
			}
		}
	}
	if err := ChurnGrid(1, 5, true).Validate(); err != nil {
		t.Errorf("churn preset: %v", err)
	}
}

// TestRunGridValidatesUpFront: a malformed grid is refused before any
// replica runs, whichever front end built it.
func TestRunGridValidatesUpFront(t *testing.T) {
	for name, mutate := range map[string]func(*GridRequest){
		"zero runs":     func(g *GridRequest) { g.Runs = 0 },
		"negative runs": func(g *GridRequest) { g.Runs = -1 },
		"no columns":    func(g *GridRequest) { g.Malicious = nil },
		"unknown kind":  func(g *GridRequest) { g.Kind = "warp" },
	} {
		g := Fig7Grid(1, 1, true)
		mutate(g)
		if tables, err := RunGrid(g, nil); err == nil {
			t.Errorf("%s: RunGrid returned %d tables, want an error", name, len(tables))
		}
	}
	if _, _, err := BlackholeSweep(smallBlackhole(), []int{0}, []int{1}, 0, nil); err == nil || !strings.Contains(err.Error(), "runs must be positive") {
		t.Errorf("BlackholeSweep with 0 runs: err = %v", err)
	}
}

// TestReplicaResultSummary pins the progress stream's per-replica line
// for each result kind.
func TestReplicaResultSummary(t *testing.T) {
	bh := &BlackholeResult{Throughput: 87.25, EnergyPerNode: 12.345, FaultsInjected: 7, FaultsSuppressed: 5, FaultsLeaked: 2}
	sn := SensorResult{MissAlarm: 0.25, FalseAlarmProb: 0.125, DetectionLatency: 1.5, LocalizationErr: 12.34,
		EnergyPerNode: 3.456, ChurnEvents: 4, ChurnReshares: 3, RoundsAborted: 2, MembershipEpoch: 5}
	for _, tc := range []struct {
		grid string
		r    ReplicaResult
		want string
	}{
		{GridBlackhole, ReplicaResult{Blackhole: bh}, "throughput=87.2% energy=12.35 J"},
		{GridCampaign, ReplicaResult{Blackhole: bh}, "throughput=87.2% injected=7 suppressed=5 leaked=2"},
		{GridSensor, ReplicaResult{SensorPair: &SensorPair{Target: sn, NoTarget: SensorResult{EnergyPerNode: 1}}},
			"miss=25% false=0.12% lat=1.50s loc=12.3m E=3.46J/1.00J"},
		{GridChurn, ReplicaResult{Sensor: &sn}, "miss=25% events=4 reshares=3 aborted=2 epoch=5 E=3.46J"},
	} {
		if got := tc.r.summary(tc.grid); got != tc.want {
			t.Errorf("%s summary = %q, want %q", tc.grid, got, tc.want)
		}
	}
}
