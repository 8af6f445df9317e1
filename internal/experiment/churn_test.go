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
	points := ChurnPoints(base, []int{3}, []int{0, 2}, 1)
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
	sweep := func(t *testing.T, shards int) *ChurnTables {
		base := churnBase()
		base.Shards = shards
		tables, err := ChurnSweep(base, []int{3}, []int{0, 2}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tables
	}
	t.Setenv("IC_WORKERS", "1")
	serial := sweep(t, 1)
	t.Setenv("IC_WORKERS", "8")
	parallel := sweep(t, 4)
	for _, pair := range []struct {
		name string
		a, b *stats.Table
	}{
		{"miss", serial.Miss, parallel.Miss},
		{"energy", serial.Energy, parallel.Energy},
		{"events", serial.Events, parallel.Events},
		{"reshares", serial.Reshares, parallel.Reshares},
		{"aborted", serial.Aborted, parallel.Aborted},
		{"epoch", serial.Epoch, parallel.Epoch},
	} {
		got, want := pair.b.StringWithCI(), pair.a.StringWithCI()
		if got != want {
			t.Errorf("table %q differs across workers x shards:\n--- serial ---\n%s--- parallel ---\n%s",
				pair.name, want, got)
		}
	}
	// The churn=2 column actually cycled the membership machinery.
	if serial.Events.Mean("IC, L=3", "churn=2") == 0 {
		t.Error("churn=2 column saw no membership transitions")
	}
	if serial.Reshares.Mean("IC, L=3", "churn=2") == 0 {
		t.Error("churn=2 column executed no reshares")
	}
	if serial.Epoch.Mean("IC, L=3", "churn=2") == 0 {
		t.Error("churn=2 column never advanced the key epoch")
	}
	if serial.Events.Mean("IC, L=3", "churn=0") != 0 {
		t.Error("churn=0 column saw membership transitions")
	}
}

// TestChurnSweepValidation covers the input checks.
func TestChurnSweepValidation(t *testing.T) {
	base := churnBase()
	if err := ValidateChurnSweep(base, nil, []int{1}); err == nil {
		t.Error("empty level axis accepted")
	}
	if err := ValidateChurnSweep(base, []int{3}, nil); err == nil {
		t.Error("empty churn axis accepted")
	}
	if err := ValidateChurnSweep(base, []int{3}, []int{-1}); err == nil {
		t.Error("negative churn rate accepted")
	}
	if err := ValidateChurnSweep(base, []int{3}, []int{0, 4}); err != nil {
		t.Errorf("valid axes rejected: %v", err)
	}
}

// TestChurnPointsTemplate: non-zero columns inherit the base schedule
// with only the rate overridden.
func TestChurnPointsTemplate(t *testing.T) {
	base := churnBase()
	base.Churn = &scenario.Churn{Downtime: 7, Reshare: scenario.ReshareOff, Protect: 2}
	points := ChurnPoints(base, []int{2, 3}, []int{0, 5}, 2)
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
