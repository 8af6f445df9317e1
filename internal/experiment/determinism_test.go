package experiment

import (
	"testing"

	"innercircle/internal/sensor"
	"innercircle/internal/stats"
)

// TestBlackholeDeterministic pins DESIGN.md §7: two runs with the same
// seed produce identical results, and a different seed produces (almost
// surely) different ones.
func TestBlackholeDeterministic(t *testing.T) {
	cfg := smallBlackhole()
	cfg.Malicious = 2
	cfg.IC = true
	cfg.L = 1
	a, err := RunBlackhole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBlackhole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	cfg.Seed++
	c, err := RunBlackhole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

// TestSweepWorkerCountInvariant pins the core determinism contract of the
// parallel replica engine: for a fixed seed, sweep tables are byte-
// identical no matter how many workers execute the replicas. Results must
// therefore fold into the tables in job-enumeration order — Welford
// accumulation is order-sensitive in floating point, so completion-order
// aggregation would already break this.
func TestSweepWorkerCountInvariant(t *testing.T) {
	blackhole := func(t *testing.T) []*stats.Table {
		cfg := smallBlackhole()
		cfg.SimTime = 30
		return mustRunGrid(t, &GridRequest{Kind: GridBlackhole, Blackhole: &cfg,
			Malicious: []int{0, 2}, Levels: []int{1}, Runs: 2})
	}
	sensorSweep := func(t *testing.T) []*stats.Table {
		cfg := PaperSensorConfig()
		cfg.Seed = 5
		cfg.SimTime = 100
		return mustRunGrid(t, &GridRequest{Kind: GridSensor, Sensor: &cfg,
			Levels: []int{3}, Faults: []sensor.FaultKind{sensor.FaultNone, sensor.FaultInterference}, Runs: 2})
	}
	for _, tc := range []struct {
		name  string
		sweep func(t *testing.T) []*stats.Table
	}{
		{"blackhole", blackhole},
		{"sensor", sensorSweep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("IC_WORKERS", "1")
			serial := tc.sweep(t)
			t.Setenv("IC_WORKERS", "8")
			parallel := tc.sweep(t)
			for i := range serial {
				got, want := parallel[i].StringWithCI(), serial[i].StringWithCI()
				if got != want {
					t.Errorf("table %q differs between IC_WORKERS=1 and 8:\n--- serial ---\n%s--- parallel ---\n%s",
						serial[i].Title, want, got)
				}
			}
		})
	}
}

// TestSensorDeterministic is the same pin for the sensor scenario,
// including the statistical-voting and fusion paths.
func TestSensorDeterministic(t *testing.T) {
	cfg := PaperSensorConfig()
	cfg.Seed = 9
	cfg.IC = true
	cfg.L = 4
	cfg.Fault = sensor.FaultInterference
	a, err := RunSensor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSensor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
