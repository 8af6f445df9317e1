package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"innercircle/internal/artifact"
	"innercircle/internal/experiment"
)

// sharedFlags are the flags every subcommand registers, name=default.
var sharedFlags = []string{
	"blockprofile=", "cpuprofile=", "manifest=", "memprofile=", "mutexprofile=",
	"quiet=false", "runs=5", "seed=1",
}

// TestFlagTable pins each subcommand's flag names and defaults to the
// list of the binary it replaced (blackhole, sensornet, faultsweep,
// churnsweep at 795be33) less the shard flags PR 23 dropped where a replica
// cannot shard: -shards and -shardstats exist on sensor and churn only.
func TestFlagTable(t *testing.T) {
	for kind, own := range map[string][]string{
		"blackhole": {"quick=false", "time=300", "max-malicious=10", "step=2", "gray=0"},
		"sensor": {"quick=false", "shards=0", "shardstats=false", "levels=2,3,4,5,6,7", "weak=false",
			"uniform=false", "fusion=cluster"},
		"campaign": {"campaign=", "preset=", "time=300", "nodes=50",
			"conns=10", "levels=1,2"},
		"churn": {"quick=false", "shards=0", "shardstats=false", "levels=2,3,5", "churns=0,2,4,8", "time=0",
			"leaves=0", "downtime=0", "policy=", "reshare-interval=0", "refresh-interval=0", "protect=0"},
	} {
		want := append(append([]string{}, sharedFlags...), own...)
		sort.Strings(want)
		fs, _ := newFlagSet(kind)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("icsweep %s flags:\n got %v\nwant %v", kind, got, want)
		}
	}
	if len(sweeps) != 4 {
		t.Errorf("%d subcommands, want 4", len(sweeps))
	}
}

// TestDefaultGridsMatchRetiredBinaries pins the request each subcommand
// builds at its defaults and under -quick by the SHA-256 of its canonical
// JSON — the spec_sha256 a -manifest run records. The literals are what
// the four retired binaries built at 795be33, so the flag → preset path
// enumerates the same replica specs (same store keys) as before. The rows
// with a shape are the invocations EXPERIMENTS.md names as the source of
// its tables: their grids are checked field by field, so the tables stay
// reachable by construction.
func TestDefaultGridsMatchRetiredBinaries(t *testing.T) {
	fusionAtL5 := func(alg experiment.FusionAlg) func(*experiment.GridRequest) bool {
		return func(g *experiment.GridRequest) bool {
			return reflect.DeepEqual(g.Levels, []int{5}) && g.Runs == 9 && g.Sensor.Fusion == alg
		}
	}
	for _, tc := range []struct {
		args, want string
		shape      func(g *experiment.GridRequest) bool
	}{
		{args: "blackhole", want: "0c61f2002241b16699642ebccfdb515dee1ffc720eda3ecdbe4d2d06960dcd23"},
		{args: "blackhole -quick", want: "7213043f331816dc222dcf68562d62fe05c3ca6904b69e4994e474f7b3e8c030"},
		{args: "sensor", want: "e1f49975f16d201d29066432c852d5a43f78020c949cc7910d2a12f5fad7088c"},
		{args: "sensor -quick", want: "ac009c4408abc6b46c14e27dda309a085a795dc1bb7a8713b8df2cb51785779e"},
		{args: "campaign", want: "56a5f3b5d89fc54d81242dc6f7dfa9435bad0170903373f26bfac3d8d379ce2a"},
		{args: "churn", want: "0230b3f199e67d7bb3c7eb400989d01f6f6e3065b3ca119cb510697ae0bbb579"},
		{args: "churn -quick", want: "d4801a8237398f84a99fcdbf0a4708a0869ccd94dd7e83f9138d648bb9827a2d"},
		// Fig. 7 at full resolution.
		{args: "blackhole -step 1 -runs 3", shape: func(g *experiment.GridRequest) bool {
			return reflect.DeepEqual(g.Malicious, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) &&
				reflect.DeepEqual(g.Levels, []int{1, 2}) && g.Runs == 3 && g.BaseSeed() == 1 &&
				g.Blackhole.SimTime == 300 && g.Blackhole.GrayProb == 0
		}},
		// Fig. 8: sensor's default grid (first rows) at three runs.
		{args: "sensor -runs 3", shape: func(g *experiment.GridRequest) bool {
			return reflect.DeepEqual(g.Levels, []int{2, 3, 4, 5, 6, 7}) && len(g.Faults) == 5 &&
				g.Runs == 3 && g.BaseSeed() == 1 && g.Sensor.Model.KT == 20000 && !g.Sensor.UniformPlacement
		}},
		// §5.2 weak signal.
		{args: "sensor -weak -levels 3,5,6,7 -runs 9", shape: func(g *experiment.GridRequest) bool {
			return reflect.DeepEqual(g.Levels, []int{3, 5, 6, 7}) && g.Runs == 9 && g.BaseSeed() == 1 &&
				g.Sensor.Model.KT == 10000 && g.Sensor.UniformPlacement
		}},
		// §5.1 gray holes.
		{args: "blackhole -gray 0.5 -runs 3", shape: func(g *experiment.GridRequest) bool {
			return reflect.DeepEqual(g.Malicious, []int{0, 2, 4, 6, 8, 10}) && g.Runs == 3 &&
				g.Blackhole.GrayProb == 0.5
		}},
		// A8, fusion in situ: one sweep per algorithm.
		{args: "sensor -levels 5 -fusion cluster -runs 9", shape: fusionAtL5(experiment.FusionCluster)},
		{args: "sensor -levels 5 -fusion mean -runs 9", shape: fusionAtL5(experiment.FusionMean)},
		{args: "sensor -levels 5 -fusion naive -runs 9", shape: fusionAtL5(experiment.FusionNaive)},
		// The shard flags write the grid's sensor config and nothing else.
		{args: "sensor -quick -shards 4 -shardstats", shape: func(g *experiment.GridRequest) bool {
			return g.Sensor.Shards == 4 && g.Sensor.ShardStats == io.Writer(os.Stderr)
		}},
		{args: "churn -quick -shards 4", shape: func(g *experiment.GridRequest) bool {
			return g.Sensor.Shards == 4 && g.Sensor.ShardStats == nil && g.Sensor.Churn != nil
		}},
	} {
		g, _, err := buildGrid(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("icsweep %s: %v", tc.args, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("icsweep %s: %v", tc.args, err)
		}
		spec, err := artifact.Canonical(g)
		if err != nil {
			t.Fatal(err)
		}
		if tc.shape != nil {
			if !tc.shape(g) {
				t.Errorf("icsweep %s builds another grid than EXPERIMENTS.md says:\n%s", tc.args, spec)
			}
			continue
		}
		if got := artifact.Sum(spec); got != tc.want {
			t.Errorf("icsweep %s: spec_sha256 %s, want %s\n%s", tc.args, got, tc.want, spec)
		}
	}
}

// TestRejectsDegenerateSweeps: a malicious-count step below 1 would never
// reach -max-malicious, and a sweep of zero runs folds nothing into its
// tables. Both, and every malformed axis, are refused before any replica
// runs.
func TestRejectsDegenerateSweeps(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"blackhole -step 0", "-step 0"},
		{"blackhole -step -2", "-step -2"},
		{"blackhole -quick -step 0", "-step 0"},
		{"blackhole -max-malicious -1", "needs malicious counts"},
		{"blackhole -runs 0", "runs must be positive"},
		{"sensor -runs 0", "runs must be positive"},
		{"campaign -runs 0", "runs must be positive"},
		{"churn -runs -3", "runs must be positive"},
		{"churn -churns -1", "bad churn rate"},
		{"sensor -levels 0", "bad level"},
		{"sensor -shards -1", "shard count must be between"},
		{"churn -shards 1025", "shard count must be between"},
		{"warp", "usage"},
		{"", "usage"},
	} {
		err := run(strings.Fields(tc.args), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("icsweep %s: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestParseInts covers both axes the subcommands parse: dependability
// levels (from 1) and churn rates (from 0).
func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,7", 1, "level")
	if err != nil {
		t.Fatalf("parseInts: %v", err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 7}) {
		t.Fatalf("parseInts = %v", got)
	}
	for _, bad := range []string{"x", "0", "-1", "2,zero"} {
		if _, err := parseInts(bad, 1, "level"); err == nil {
			t.Errorf("parseInts(%q, 1) accepted", bad)
		}
	}
	if got, err := parseInts("0,4", 0, "churn rate"); err != nil || !reflect.DeepEqual(got, []int{0, 4}) {
		t.Errorf("parseInts(\"0,4\", 0) = %v, %v", got, err)
	}
	if _, err := parseInts("-1", 0, "churn rate"); err == nil {
		t.Error("negative churn rate accepted")
	}
}
