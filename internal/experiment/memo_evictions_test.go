package experiment

import (
	"testing"

	"innercircle/internal/faults"
	"innercircle/internal/scenario"
)

// campaignSmokeGrid is the campaign sweep of icsweep's checked-in campaign
// smoke (cmd/icsweep/testdata/campaign-smoke.txt): the mixed campaign of
// campaign-smoke.json beside the clean and blackhole:2 presets, on a
// 20-node network for 10 s.
func campaignSmokeGrid(t *testing.T) *GridRequest {
	t.Helper()
	mixed, err := faults.Load("../../cmd/icsweep/testdata/campaign-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	g := CoverageGrid(1, 2, false)
	g.Campaigns = []faults.Campaign{mixed}
	for _, spec := range []string{"clean", "blackhole:2"} {
		c, err := faults.ParsePreset(spec)
		if err != nil {
			t.Fatal(err)
		}
		g.Campaigns = append(g.Campaigns, c)
	}
	g.Levels = []int{1}
	g.Blackhole.Nodes = 20
	g.Blackhole.Connections = 5
	g.Blackhole.SimTime = 10
	return g
}

// replicaScenarios returns the scenario specs a replica spec runs: one,
// or two for a Fig. 8 pair (with and without the target).
func replicaScenarios(t *testing.T, s ReplicaSpec) []*scenario.Spec {
	t.Helper()
	if s.Blackhole != nil {
		return []*scenario.Spec{blackholeSpec(*s.Blackhole)}
	}
	cfgs := []SensorConfig{*s.Sensor}
	if s.Kind == ReplicaSensorPair {
		nt := *s.Sensor
		nt.NoTarget = true
		cfgs = append(cfgs, nt)
	}
	var specs []*scenario.Spec
	for _, cfg := range cfgs {
		spec, _, err := sensorSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestVoteMemoEvictions counts the entries the voting services' signature
// memo (sigcache, DefaultCap entries per kernel) evicts over every replica
// of the four -quick grids and the campaign smoke, and pins the total. An
// eviction is where a bounded memo can answer differently from an exact
// one, so while the total is zero the campaign tables' "verifications
// avoided by memo" row (VoteMemoHits) is what an exact memo would count
// too, and the LRU's capacity and order are no fixed point of any table.
func TestVoteMemoEvictions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five sweeps replica by replica")
	}
	const want = 0
	var evictions, hits uint64
	largest := 0
	for _, g := range []*GridRequest{Fig7Grid(1, 2, true), Fig8Grid(1, 2, true), CoverageGrid(1, 2, true),
		ChurnGrid(1, 2, true), campaignSmokeGrid(t)} {
		points, err := g.Points()
		if err != nil {
			t.Fatal(err)
		}
		var gridEvictions uint64
		for _, p := range points {
			for _, spec := range replicaScenarios(t, p.Spec) {
				_, net := runProbed(t, spec)
				for _, m := range net.Memos {
					gridEvictions += m.Evictions()
					largest = max(largest, m.Len())
				}
				for _, nd := range net.Nodes {
					if nd.Vote != nil {
						hits += nd.Vote.Stats.MemoHits
					}
				}
			}
		}
		t.Logf("%s (%d replicas): %d evictions", g.Name, len(points), gridEvictions)
		evictions += gridEvictions
	}
	t.Logf("%d memo hits in all; the largest memo held %d entries at the end of its replica", hits, largest)
	if evictions != want {
		t.Errorf("%d memo evictions over the four -quick grids and the campaign smoke, want %d", evictions, want)
	}
}
