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
	bh := smallBlackhole()
	if _, err := RunGrid(&GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: []int{0}, Levels: []int{1}}, nil); err == nil || !strings.Contains(err.Error(), "runs must be positive") {
		t.Errorf("RunGrid with 0 runs: err = %v", err)
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

// TestKindTablesComplete walks the two kind tables so that a fifth kind
// cannot be half-added: every grid kind has a preset constructor whose
// full and -quick shapes are valid and differ, figures to fold into, a
// progress summary and a replica kind the second table knows; every
// replica kind names a config slot, runs and recognises its own result
// body; and no entry of either table is left over.
func TestKindTablesComplete(t *testing.T) {
	presets := map[string]func(seed int64, runs int, quick bool) *GridRequest{
		GridBlackhole: Fig7Grid, GridSensor: Fig8Grid, GridCampaign: CoverageGrid, GridChurn: ChurnGrid,
	}
	used := map[string]bool{}
	for name, k := range gridKinds {
		rk, ok := replicaKinds[k.replica]
		if !ok {
			t.Errorf("grid kind %q names replica kind %q, which replicaKinds lacks", name, k.replica)
			continue
		}
		used[k.replica] = true
		if k.columns == nil || k.column == nil || k.check == nil || k.summary == nil {
			t.Errorf("grid kind %q lacks a columns, column, check or summary function", name)
			continue
		}
		if len(k.shape.figures) == 0 || k.shape.corner == "" || k.shape.counters > len(k.shape.figures) {
			t.Errorf("grid kind %q has no well-formed gridShape: %+v", name, k.shape)
		}
		preset := presets[name]
		if preset == nil {
			t.Errorf("grid kind %q has no preset constructor", name)
			continue
		}
		full, quick := preset(1, 5, false), preset(1, 5, true)
		var sizes [2]int
		for i, g := range []*GridRequest{full, quick} {
			if g.Kind != name {
				t.Errorf("preset of kind %q builds a %q grid", name, g.Kind)
			}
			points, err := g.Points()
			if err != nil || len(points) == 0 {
				t.Errorf("grid kind %q: preset (quick=%v) enumerates %d points, err %v", name, i == 1, len(points), err)
				continue
			}
			sizes[i] = len(points)
			if points[0].Spec.Kind != k.replica {
				t.Errorf("grid kind %q enumerates %q replicas, its entry says %q", name, points[0].Spec.Kind, k.replica)
			}
			if noIC := points[0].Row == "No IC"; noIC != k.noIC {
				t.Errorf("grid kind %q: first row %q, entry says noIC=%v", name, points[0].Row, k.noIC)
			}
		}
		if sizes[1] >= sizes[0] {
			t.Errorf("grid kind %q: the -quick shape has %d points, the full one %d", name, sizes[1], sizes[0])
		}
		// A result without the kind's body summarises as empty; every
		// figure and the summary read a zero body without panicking.
		if got := (ReplicaResult{}).summary(name); got != "empty result" {
			t.Errorf("grid kind %q summarises an empty result as %q", name, got)
		}
		body := ReplicaResult{Kind: k.replica, Blackhole: &BlackholeResult{}, SensorPair: &SensorPair{}, Sensor: &SensorResult{}}
		if !rk.body(body) || k.summary(body) == "" {
			t.Errorf("grid kind %q: no summary of a full result", name)
		}
		for _, f := range k.shape.figures {
			if f.title == "" || f.value == nil {
				t.Errorf("grid kind %q has an untitled or valueless figure", name)
				continue
			}
			f.value(body)
		}
	}
	for name := range presets {
		if _, ok := gridKinds[name]; !ok {
			t.Errorf("preset for %q, which gridKinds lacks", name)
		}
	}
	for name, rk := range replicaKinds {
		if !used[name] {
			t.Errorf("replica kind %q is carried by no grid kind", name)
		}
		if rk.config != cfgBlackhole && rk.config != cfgSensor {
			t.Errorf("replica kind %q requires config slot %d", name, rk.config)
		}
		if rk.run == nil || rk.body == nil {
			t.Errorf("replica kind %q lacks a run or body function", name)
			continue
		}
		if rk.body(ReplicaResult{Kind: name}) {
			t.Errorf("replica kind %q finds a body in an empty result", name)
		}
	}
}
