package experiment

import (
	"testing"

	"innercircle/internal/scenario"
	"innercircle/internal/stats"
)

// churnBase is a shortened Fig. 8 box for churn-sweep tests.
func churnBase() SensorConfig {
	cfg := PaperSensorConfig()
	cfg.Seed = 11
	cfg.SimTime = 60
	cfg.TargetStart = 20
	cfg.TargetPeriod = 40
	cfg.TargetDuration = 15
	return cfg
}

// TestChurnZeroColumnIsSeedReplica pins the sweep's control column: a
// churn=0 grid point is configured — and therefore runs — exactly like
// the plain IC sensor replica the pre-churn sweeps measured.
func TestChurnZeroColumnIsSeedReplica(t *testing.T) {
	base := churnBase()
	points := mustPoints(t, &GridRequest{Kind: GridChurn, Sensor: &base, Levels: []int{3}, Churns: []int{0, 2}, Runs: 1})
	if len(points) != 2 {
		t.Fatalf("enumerated %d points, want 2", len(points))
	}
	zero := points[0]
	if zero.Col != "churn=0" || zero.Spec.Sensor.Churn != nil {
		t.Fatalf("churn=0 point carries a churn schedule: %+v", zero)
	}
	seed := base
	seed.IC = true
	seed.L = 3
	want, err := RunSensor(seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSensor(*zero.Spec.Sensor)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("churn=0 replica diverged from the seed replica:\n%+v\nvs\n%+v", got, want)
	}
	if got.ChurnEvents != 0 || got.MembershipEpoch != 0 {
		t.Fatalf("churn=0 replica reports lifecycle activity: %+v", got)
	}
}

// TestChurnSweepWorkerShardInvariant pins the determinism contract for
// the new axis: churn-sweep tables are byte-identical across worker
// counts and shard counts (active churn pins its replicas to one kernel;
// churn=0 replicas are shard-invariant by the kernel contract).
func TestChurnSweepWorkerShardInvariant(t *testing.T) {
	sweep := func(t *testing.T, shards int) []*stats.Table {
		base := churnBase()
		base.Shards = shards
		return mustRunGrid(t, &GridRequest{Kind: GridChurn, Sensor: &base, Levels: []int{3}, Churns: []int{0, 2}, Runs: 1})
	}
	t.Setenv("IC_WORKERS", "1")
	serial := sweep(t, 1)
	t.Setenv("IC_WORKERS", "8")
	parallel := sweep(t, 4)
	// Miss, energy, events, reshares, aborted, epoch.
	if len(serial) != 6 {
		t.Fatalf("%d churn tables, want 6", len(serial))
	}
	for i := range serial {
		got, want := parallel[i].StringWithCI(), serial[i].StringWithCI()
		if got != want {
			t.Errorf("table %q differs across workers x shards:\n--- serial ---\n%s--- parallel ---\n%s",
				serial[i].Title, want, got)
		}
	}
	events, reshares, epoch := serial[2], serial[3], serial[5]
	// The churn=2 column actually cycled the membership machinery.
	if events.Mean("IC, L=3", "churn=2") == 0 {
		t.Error("churn=2 column saw no membership transitions")
	}
	if reshares.Mean("IC, L=3", "churn=2") == 0 {
		t.Error("churn=2 column executed no reshares")
	}
	if epoch.Mean("IC, L=3", "churn=2") == 0 {
		t.Error("churn=2 column never advanced the key epoch")
	}
	if events.Mean("IC, L=3", "churn=0") != 0 {
		t.Error("churn=0 column saw membership transitions")
	}
}

// TestChurnSweepValidation covers the input checks.
func TestChurnSweepValidation(t *testing.T) {
	base := churnBase()
	validate := func(levels, churns []int) error {
		return (&GridRequest{Kind: GridChurn, Sensor: &base, Levels: levels, Churns: churns, Runs: 1}).Validate()
	}
	if err := validate(nil, []int{1}); err == nil {
		t.Error("empty level axis accepted")
	}
	if err := validate([]int{3}, nil); err == nil {
		t.Error("empty churn axis accepted")
	}
	if err := validate([]int{3}, []int{-1}); err == nil {
		t.Error("negative churn rate accepted")
	}
	if err := validate([]int{3}, []int{0, 4}); err != nil {
		t.Errorf("valid axes rejected: %v", err)
	}
}

// TestChurnPointsTemplate: non-zero columns inherit the base schedule
// with only the rate overridden.
func TestChurnPointsTemplate(t *testing.T) {
	base := churnBase()
	base.Churn = &scenario.Churn{Downtime: 7, Reshare: scenario.ReshareOff, Protect: 2}
	points := mustPoints(t, &GridRequest{Kind: GridChurn, Sensor: &base, Levels: []int{2, 3}, Churns: []int{0, 5}, Runs: 2})
	if len(points) != 8 {
		t.Fatalf("enumerated %d points, want 8", len(points))
	}
	for _, p := range points {
		switch p.Col {
		case "churn=0":
			if p.Spec.Sensor.Churn != nil {
				t.Fatalf("%s: churn=0 carries a schedule", p.Label)
			}
		case "churn=5":
			c := p.Spec.Sensor.Churn
			if c == nil || c.CrashRejoin != 5 || c.Downtime != 7 || c.Reshare != scenario.ReshareOff || c.Protect != 2 {
				t.Fatalf("%s: template not applied: %+v", p.Label, c)
			}
			if base.Churn.CrashRejoin != 0 {
				t.Fatal("point construction mutated the base template")
			}
		default:
			t.Fatalf("unexpected column %q", p.Col)
		}
	}
}
