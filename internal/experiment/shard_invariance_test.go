package experiment

import (
	"runtime"
	"testing"

	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
	"innercircle/internal/stats"
)

// shardSensorTables runs a small sensor sweep at the given shard count and
// renders its tables.
func shardSensorTables(t *testing.T, shards int) []string {
	t.Helper()
	cfg := PaperSensorConfig()
	cfg.Seed = 11
	cfg.SimTime = 100
	cfg.Shards = shards
	tables, err := SensorSweep(cfg, []int{3}, []sensor.FaultKind{sensor.FaultNone, sensor.FaultInterference}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, key := range []string{"miss", "false", "energyT", "energyNT", "latency", "locerr"} {
		out = append(out, tables[key].StringWithCI())
	}
	return out
}

// sweepKnobs is every environment setting that shapes how a sweep executes.
// Each invariance subtest pins all of them so variants cannot leak into
// each other or inherit strategy from the ambient environment.
var sweepKnobs = []string{"IC_WORKERS", "IC_SHARD_STATS"}

// TestSweepShardCountInvariant pins the sharded kernel's determinism
// contract end to end: sweep tables are byte-identical at every shard
// count, at every executor slot count, and at every (workers, budget)
// combination. How many slots run is the code's choice from what it
// observes, so the variants drive exactly that: at GOMAXPROCS=1 every
// sharded replica runs on one slot, the caller's goroutine; at GOMAXPROCS=4
// with one pool worker three core tokens are spare and the replica runs on
// min(shards, 4) slots — the seq/ and par/ variants, named for how the
// shards then run. Ambiguous cross-shard timestamp ties are allowed to
// occur — the runner then reruns the replica on one kernel — so the
// equality below holds unconditionally, not just on tie-free runs.
func TestSweepShardCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute sweep matrix")
	}
	variants := []struct {
		name   string
		shards int
		procs  int // GOMAXPROCS for the variant; 0 leaves the host's
		env    map[string]string
	}{
		{"seq/shards=2", 2, 1, nil},
		{"seq/shards=4", 4, 1, nil},
		{"seq/shards=8", 8, 1, nil},
		{"par/shards=2", 2, 4, map[string]string{"IC_WORKERS": "1"}},
		{"par/shards=4", 4, 4, map[string]string{"IC_WORKERS": "1"}},
		{"par/shards=8", 8, 4, map[string]string{"IC_WORKERS": "1"}},
		{"budgeted/workers=1/shards=4", 4, 0, map[string]string{"IC_WORKERS": "1"}},
		{"budgeted/workers=4/shards=4", 4, 4, map[string]string{"IC_WORKERS": "4"}},
		{"shardstats/par/shards=4", 4, 4, map[string]string{"IC_WORKERS": "1", "IC_SHARD_STATS": "1"}},
	}
	for _, knob := range sweepKnobs {
		t.Setenv(knob, "")
	}
	want := shardSensorTables(t, 1)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, knob := range sweepKnobs {
				t.Setenv(knob, v.env[knob])
			}
			if v.procs > 0 {
				prev := runtime.GOMAXPROCS(v.procs)
				t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			}
			got := shardSensorTables(t, v.shards)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("table %d differs between 1 shard and %s:\n--- 1 shard ---\n%s--- %s ---\n%s",
						i, v.name, want[i], v.name, got[i])
				}
			}
		})
	}
}

// TestShardEnvKnob: IC_SHARDS is the environment route to the same
// contract — Spec.Shards == 0 defers to it.
func TestShardEnvKnob(t *testing.T) {
	cfg := PaperSensorConfig()
	cfg.Seed = 3
	cfg.SimTime = 60
	want, err := RunSensor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("IC_SHARDS", "4")
	got, err := RunSensor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("IC_SHARDS=4 result differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSensorShardingEngages: the sensor field must actually run
// partitioned (not silently fall back) for the configuration the scaling
// benches use. A timestamp-tie rerun would report Shards == 1; ties are
// deterministic per seed, so this pins a seed that executes sharded.
func TestSensorShardingEngages(t *testing.T) {
	cfg := PaperSensorConfig()
	cfg.Seed = 3
	cfg.SimTime = 60
	cfg.Shards = 4
	spec, err := sensorSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 {
		t.Fatalf("replica executed with %d shards, want 4", res.Shards)
	}
}

// TestBlackholeShardFallback: the blackhole scenario cannot shard (mobile
// topology, CBR traffic, fault campaign — each alone rules it out) and
// must fall back to identical single-kernel results.
func TestBlackholeShardFallback(t *testing.T) {
	run := func(shards int) []*stats.Table {
		cfg := smallBlackhole()
		cfg.SimTime = 30
		cfg.Shards = shards
		thr, eng, err := BlackholeSweep(cfg, []int{0, 2}, []int{1}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return []*stats.Table{thr, eng}
	}
	want := run(1)
	got := run(4)
	for i := range want {
		if got[i].StringWithCI() != want[i].StringWithCI() {
			t.Errorf("blackhole table %q differs with Shards=4:\n--- 1 ---\n%s--- 4 ---\n%s",
				want[i].Title, want[i].StringWithCI(), got[i].StringWithCI())
		}
	}
}
