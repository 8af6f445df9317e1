// The paper's grids, defined once. cmd/icsweep takes its flag defaults
// and -quick shapes from these constructors and scripts/repro submits
// them as they are, so the two cannot drift apart; presets_test.go pins
// each grid's canonical bytes, because replica spec hashes — the artifact
// store's dedup keys — follow from them.
//
// Each constructor takes the base seed, the runs per grid point (the
// paper averages 50) and quick, which selects a reduced shape for a fast
// preview and fixes runs at 2.
package experiment

import (
	"innercircle/internal/faults"
	"innercircle/internal/sensor"
)

// Fig7Grid is Fig. 7: AODV under 0..10 black holes, plain and with the
// inner circle at L=1 and L=2.
func Fig7Grid(seed int64, runs int, quick bool) *GridRequest {
	base := PaperBlackholeConfig()
	base.Seed = seed
	g := &GridRequest{Name: "fig7-blackhole", Kind: GridBlackhole, Blackhole: &base,
		Malicious: []int{0, 2, 4, 6, 8, 10}, Levels: []int{1, 2}, Runs: runs}
	if quick {
		base.SimTime = 60
		g.Malicious = []int{0, 2, 6, 10}
		g.Levels = []int{1}
		g.Runs = 2
	}
	return g
}

// Fig8Grid is Fig. 8: the 100-node sensor network under the four sensor
// fault models, centralized and with the inner circle at L=2..7.
func Fig8Grid(seed int64, runs int, quick bool) *GridRequest {
	base := PaperSensorConfig()
	base.Seed = seed
	g := &GridRequest{Name: "fig8-sensor", Kind: GridSensor, Sensor: &base,
		Levels: []int{2, 3, 4, 5, 6, 7}, Faults: sensor.AllFaultKinds(), Runs: runs}
	if quick {
		g.Levels = []int{3, 5}
		g.Faults = []sensor.FaultKind{sensor.FaultNone, sensor.FaultInterference}
		g.Runs = 2
	}
	return g
}

// CoverageGrid is the neutralization-coverage sweep over the Fig. 7
// network: the demonstration campaign set, one preset per fault class.
func CoverageGrid(seed int64, runs int, quick bool) *GridRequest {
	base := PaperBlackholeConfig()
	base.Seed = seed
	specs := []string{
		"clean", "blackhole:3", "grayhole:3:0.5", "drop:3:0.5",
		"corrupt:3:0.25", "spoof:3", "churn:3:30:10", "byzantine:3",
	}
	g := &GridRequest{Name: "campaign-coverage", Kind: GridCampaign, Blackhole: &base,
		Levels: []int{1, 2}, Runs: runs}
	if quick {
		base.SimTime = 60
		specs = specs[:2]
		g.Levels = []int{1}
		g.Runs = 2
	}
	for _, spec := range specs {
		c, err := faults.ParsePreset(spec)
		if err != nil {
			panic(err) // the specs above are literals
		}
		g.Campaigns = append(g.Campaigns, c)
	}
	return g
}

// ChurnGrid is the membership-churn sweep over the Fig. 8 network: the
// inner circle at three levels under increasing crash-and-rejoin rates,
// churn=0 being the churn-free control.
func ChurnGrid(seed int64, runs int, quick bool) *GridRequest {
	base := PaperSensorConfig()
	base.Seed = seed
	g := &GridRequest{Name: "churn", Kind: GridChurn, Sensor: &base,
		Levels: []int{2, 3, 5}, Churns: []int{0, 2, 4, 8}, Runs: runs}
	if quick {
		base.SimTime = 60
		base.TargetStart = 20
		base.TargetPeriod = 40
		base.TargetDuration = 15
		g.Levels = []int{3}
		g.Churns = []int{0, 2}
		g.Runs = 2
	}
	return g
}
