package experiment

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"innercircle/internal/node"
	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
	"innercircle/internal/sim"
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
// combination. How many slots run is the planner's choice from what it
// observes, so the variants drive exactly that: at GOMAXPROCS=2 with one
// pool worker one core token is spare and every sharded replica runs on two
// slots, several shards to a slot from 4 shards up — the seq/ variants; at
// GOMAXPROCS=4 with one worker three are spare and the replica runs on
// min(shards, 4) slots — the par/ variants. budgeted/workers=1 leaves
// GOMAXPROCS at the host's, and budgeted/workers=4 runs four workers that
// hold four of eight tokens, so the first replica to plan always finds at
// least two slots and later ones may find one. Every variant must have run
// at least one replica on more than one shard (on a one-core host the
// host-sized variant must instead have run none: one slot, one kernel).
// Ambiguous cross-shard timestamp ties are allowed to occur — the runner
// then reruns the replica on one kernel — so the equality below holds
// unconditionally, not just on tie-free runs. The shardstats/ variant
// also counts the reports: every replica reports once. IC_WORKERS is the
// one environment setting that shapes how a sweep executes; every variant
// pins it.
func TestSweepShardCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute sweep matrix")
	}
	variants := []struct {
		name    string
		shards  int
		procs   int    // GOMAXPROCS for the variant; 0 leaves the host's
		workers string // IC_WORKERS
		count   bool   // check one report per replica
	}{
		{"seq/shards=2", 2, 2, "1", false},
		{"seq/shards=4", 4, 2, "1", false},
		{"seq/shards=8", 8, 2, "1", false},
		{"par/shards=2", 2, 4, "1", false},
		{"par/shards=4", 4, 4, "1", false},
		{"par/shards=8", 8, 4, "1", false},
		{"budgeted/workers=1/shards=4", 4, 0, "1", false},
		{"budgeted/workers=4/shards=4", 4, 8, "4", false},
		{"shardstats/par/shards=4", 4, 4, "1", true},
	}
	t.Setenv("IC_WORKERS", "")
	want := shardSensorTables(t, 1, nil)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Setenv("IC_WORKERS", v.workers)
			if v.procs > 0 {
				withProcs(t, v.procs)
			}
			stats := &lockedBuffer{}
			got := shardSensorTables(t, v.shards, stats)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("table %d differs between 1 shard and %s:\n--- 1 shard ---\n%s--- %s ---\n%s",
						i, v.name, want[i], v.name, got[i])
				}
			}
			report := stats.b.String()
			// A per-shard table ("...: shards=N straggler=...") is printed
			// only for a replica that ran on N > 1 kernels.
			if sharded, oneCore := strings.Contains(report, ": shards="), runtime.GOMAXPROCS(0) == 1; sharded == oneCore {
				t.Errorf("GOMAXPROCS=%d: some replica ran sharded = %v:\n%s", runtime.GOMAXPROCS(0), sharded, report)
			}
			if v.count {
				// 2 rows × 2 faults × 1 run, paired: 8 replicas, one report each.
				if n := strings.Count(report, "shardstats sensornet: "); n != 8 {
					t.Errorf("%d shard reports for 8 replicas:\n%s", n, report)
				}
			}
		})
	}
}

// outcome is what a replica computed: its Result without the planner's
// decision, which the requested shard count may change and nothing else may.
func outcome(r *scenario.Result) scenario.Result {
	o := *r
	o.Shards, o.ShardReason = 0, ""
	return o
}

// withProcs sets GOMAXPROCS to n for the rest of the test.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSensorShardingEngages: the sensor field must actually run
// partitioned (not silently fall back) for the configuration the scaling
// benches use, given two executor slots. A timestamp-tie rerun would report
// Shards == 1; ties are deterministic per seed, so this pins a seed that
// executes sharded.
func TestSensorShardingEngages(t *testing.T) {
	withProcs(t, 2)
	cfg := PaperSensorConfig()
	cfg.Seed = 3
	cfg.SimTime = 60
	cfg.Shards = 4
	spec, _, err := sensorSpec(cfg)
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
// computes what the one-shard replica computes. Two executor slots keep the
// first attempt sharded.
func TestSensorShardTieReruns(t *testing.T) {
	withProcs(t, 2)
	run := func(seed int64, shards int) (*scenario.Result, SensorResult) {
		cfg := ScaledSensorConfig(400)
		cfg.Seed = seed
		cfg.Shards = shards
		spec, sc, err := sensorSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res, sc.result(res)
	}
	want, wantSensor := run(6, 1)
	got, gotSensor := run(6, 4)
	if got.Shards != 1 || got.ShardReason != scenario.ReasonTie {
		t.Fatalf("seed 6 ran on %d shards, reason %q; want 1, %q", got.Shards, got.ShardReason, scenario.ReasonTie)
	}
	if outcome(got) != outcome(want) || gotSensor != wantSensor {
		t.Errorf("the second attempt differs from the one-shard replica:\n%+v\n%+v\nvs\n%+v\n%+v",
			*got, gotSensor, *want, wantSensor)
	}
	if clean, _ := run(1, 4); clean.Shards != 4 || clean.ShardReason != "" {
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
		if outcome(got) != outcome(want) {
			t.Errorf("malicious=%d: result differs with Shards=4:\n--- 1 ---\n%+v\n--- 4 ---\n%+v", malicious, *want, *got)
		}
	}
}

// tokenProbe records, at each attempt's start, the core tokens in use —
// the planner has taken its share by then — and can make the run fail.
type tokenProbe struct {
	limit bool // set an event limit the run trips
	held  []int
}

func (*tokenProbe) Attach(*scenario.Env, *node.Node) {}

func (p *tokenProbe) Start(env *scenario.Env) {
	p.held = append(p.held, sim.CoresInUse())
	if p.limit {
		if env.Net.Set != nil {
			env.Net.Set.SetEventLimit(1000)
		} else {
			env.K().SetEventLimit(1000)
		}
	}
}

// TestReplicaCoreTokens: the planner takes core tokens before the build and
// holds them through the run and any tie rerun; whatever the replica does —
// run sharded, run on one kernel for want of a second slot, tie and rerun,
// fail — sim.CoresInUse returns to where it started.
func TestReplicaCoreTokens(t *testing.T) {
	for _, tc := range []struct {
		name       string
		procs      int
		seed       int64
		limit      bool
		wantShards int
		wantReason string
		wantHeld   []int // tokens in use at each attempt's start, above the base
	}{
		{"sharded", 4, 1, false, 4, "", []int{3}},
		{"one slot", 1, 1, false, 1, scenario.ReasonSlots, []int{0}},
		{"tie rerun", 4, 6, false, 1, scenario.ReasonTie, []int{3, 3}},
		{"run error", 4, 1, true, 0, "", []int{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, tc.procs)
			cfg := ScaledSensorConfig(400)
			cfg.Seed = tc.seed
			cfg.Shards = 4
			spec, _, err := sensorSpec(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe := &tokenProbe{limit: tc.limit}
			spec.Stack.Components = append(spec.Stack.Components, probe)
			base := sim.CoresInUse()
			res, err := scenario.Run(spec)
			if got := sim.CoresInUse(); got != base {
				t.Errorf("%d core tokens in use after the replica, want %d", got, base)
			}
			for i := range probe.held {
				probe.held[i] -= base
			}
			if !slices.Equal(probe.held, tc.wantHeld) {
				t.Errorf("tokens held at each attempt's start %v, want %v", probe.held, tc.wantHeld)
			}
			if tc.limit {
				if err == nil || !strings.Contains(err.Error(), "event limit") {
					t.Fatalf("err = %v, want an event-limit error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Shards != tc.wantShards || res.ShardReason != tc.wantReason {
				t.Errorf("ran on %d shards, reason %q; want %d, %q", res.Shards, res.ShardReason, tc.wantShards, tc.wantReason)
			}
		})
	}
}
