package experiment

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
)

// shardSensorTables runs a small sensor sweep at the given shard count and
// renders its tables; a non-nil stats receives the replicas' shard reports.
func shardSensorTables(t *testing.T, shards int, stats io.Writer) []string {
	t.Helper()
	cfg := PaperSensorConfig()
	cfg.Seed = 11
	cfg.SimTime = 100
	cfg.Shards = shards
	cfg.ShardStats = stats
	var out []string
	for _, tb := range mustRunGrid(t, &GridRequest{Kind: GridSensor, Sensor: &cfg,
		Levels: []int{3}, Faults: []sensor.FaultKind{sensor.FaultNone, sensor.FaultInterference}, Runs: 1}) {
		out = append(out, tb.StringWithCI())
	}
	return out
}

// lockedBuffer is a bytes.Buffer the pool's workers can share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *lockedBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

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
// equality below holds unconditionally, not just on tie-free runs. The
// shardstats/ variant hands the sweep a report writer: every replica
// reports, and no table moves. IC_WORKERS is the one environment setting
// that shapes how a sweep executes; every variant pins it.
func TestSweepShardCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute sweep matrix")
	}
	variants := []struct {
		name    string
		shards  int
		procs   int    // GOMAXPROCS for the variant; 0 leaves the host's
		workers string // IC_WORKERS; "" leaves the pool at GOMAXPROCS
		stats   bool
	}{
		{"seq/shards=2", 2, 1, "", false},
		{"seq/shards=4", 4, 1, "", false},
		{"seq/shards=8", 8, 1, "", false},
		{"par/shards=2", 2, 4, "1", false},
		{"par/shards=4", 4, 4, "1", false},
		{"par/shards=8", 8, 4, "1", false},
		{"budgeted/workers=1/shards=4", 4, 0, "1", false},
		{"budgeted/workers=4/shards=4", 4, 4, "4", false},
		{"shardstats/par/shards=4", 4, 4, "1", true},
	}
	t.Setenv("IC_WORKERS", "")
	want := shardSensorTables(t, 1, nil)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Setenv("IC_WORKERS", v.workers)
			if v.procs > 0 {
				prev := runtime.GOMAXPROCS(v.procs)
				t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			}
			var stats *lockedBuffer
			var w io.Writer
			if v.stats {
				stats = &lockedBuffer{}
				w = stats
			}
			got := shardSensorTables(t, v.shards, w)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("table %d differs between 1 shard and %s:\n--- 1 shard ---\n%s--- %s ---\n%s",
						i, v.name, want[i], v.name, got[i])
				}
			}
			if stats != nil {
				// 2 rows × 2 faults × 1 run, paired: 8 replicas, one report each.
				if n := strings.Count(stats.b.String(), "shardstats sensornet: "); n != 8 {
					t.Errorf("%d shard reports for 8 replicas:\n%s", n, stats.b.String())
				}
			}
		})
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

// TestSensorShardTieReruns: the planner's last-resort rule on a real
// replica. A field_scale-shaped field (ScaledSensorConfig, 4 shards) whose
// seed puts two stripes' border transmissions on a bit-identical timestamp
// — ties are deterministic per seed; this one trips, seed 1 does not —
// aborts its sharded attempt, runs again on one kernel, says so, and
// computes what the one-shard replica computes.
func TestSensorShardTieReruns(t *testing.T) {
	run := func(seed int64, shards int) *scenario.Result {
		cfg := ScaledSensorConfig(400)
		cfg.Seed = seed
		cfg.Shards = shards
		spec, err := sensorSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(6, 1), run(6, 4)
	if got.Shards != 1 || got.ShardReason != scenario.ReasonTie {
		t.Fatalf("seed 6 ran on %d shards, reason %q; want 1, %q", got.Shards, got.ShardReason, scenario.ReasonTie)
	}
	if got.Counters.String() != want.Counters.String() || got.Gauges.String() != want.Gauges.String() {
		t.Errorf("the second attempt differs from the one-shard replica:\n%s | %s\nvs\n%s | %s",
			got.Counters, got.Gauges, want.Counters, want.Gauges)
	}
	if clean := run(1, 4); clean.Shards != 4 || clean.ShardReason != "" {
		t.Errorf("seed 1 ran on %d shards, reason %q; want 4 and none", clean.Shards, clean.ShardReason)
	}
}

// TestBlackholeShardFallback: the blackhole scenario cannot shard (mobile
// topology, CBR traffic, fault campaign — each alone rules it out), which
// is why its config has no shard count. Asked through the Spec, the one
// route there is, it must run on one kernel, say why, and compute the
// identical result.
func TestBlackholeShardFallback(t *testing.T) {
	for _, malicious := range []int{0, 2} {
		run := func(shards int) *scenario.Result {
			cfg := smallBlackhole()
			cfg.SimTime = 30
			cfg.Malicious = malicious
			spec := blackholeSpec(cfg)
			spec.Shards = shards
			res, err := scenario.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want, got := run(1), run(4)
		if got.Shards != 1 || got.ShardReason != scenario.ReasonTraffic {
			t.Errorf("malicious=%d: ran on %d shards, reason %q; want 1, %q", malicious, got.Shards, got.ShardReason, scenario.ReasonTraffic)
		}
		if got.Counters.String() != want.Counters.String() || got.Gauges.String() != want.Gauges.String() {
			t.Errorf("malicious=%d: result differs with Shards=4:\n--- 1 ---\n%s | %s\n--- 4 ---\n%s | %s",
				malicious, want.Counters, want.Gauges, got.Counters, got.Gauges)
		}
	}
}
