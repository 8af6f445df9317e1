// Command faultsweep sweeps fault/attack campaigns over the Fig. 7
// network and reports throughput, energy, and the neutralization-coverage
// counters (faults injected / suppressed by the inner circle / leaked to
// the application).
//
// Usage:
//
//	faultsweep [-campaign a.json,b.json] [-preset spec,spec,...]
//	           [-runs N] [-seed S] [-time T] [-nodes N] [-levels 1,2]
//	           [-quiet]
//
// Campaigns come from JSON files (-campaign, see README for the schema),
// from preset shorthands (-preset, e.g. blackhole:3 grayhole:3:0.5
// corrupt:3:0.25 spoof:3 churn:3:30:10 byzantine:3 drop:3:0.3 clean), or,
// when neither flag is given, from a built-in demonstration set covering
// every fault class. Same seed and campaign produce byte-identical tables
// at any IC_WORKERS setting.
package main

import (
	"flag"
	"fmt"
	"os"

	ic "innercircle"
	"innercircle/internal/cliutil"
	"innercircle/internal/experiment"
)

func run() error {
	var (
		campaignCSV = flag.String("campaign", "", "comma-separated campaign JSON files")
		presetCSV   = flag.String("preset", "", "comma-separated preset specs (see package doc)")
		runs        = flag.Int("runs", 5, "simulation runs per cell")
		seed        = flag.Int64("seed", 1, "base seed")
		simTime     = flag.Float64("time", 300, "simulated seconds per run")
		nodes       = flag.Int("nodes", 50, "network size")
		conns       = flag.Int("conns", 10, "CBR connections (count-selected attackers come from the remaining nodes)")
		levelsCSV   = flag.String("levels", "1,2", "comma-separated dependability levels")
		quiet       = flag.Bool("quiet", false, "suppress per-run progress")
		prof        = cliutil.AddProfileFlags(flag.CommandLine)
	)
	applyShards := cliutil.AddShardsFlag(flag.CommandLine)
	applyShardStats := cliutil.AddShardStatsFlag(flag.CommandLine)
	writeManifest := cliutil.AddManifestFlag(flag.CommandLine)
	flag.Parse()
	if err := applyShards(); err != nil {
		return err
	}
	if err := applyShardStats(); err != nil {
		return err
	}

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	var campaigns []ic.Campaign
	for _, path := range cliutil.SplitCSV(*campaignCSV) {
		c, err := ic.LoadCampaign(path)
		if err != nil {
			return err
		}
		campaigns = append(campaigns, c)
	}
	for _, spec := range cliutil.SplitCSV(*presetCSV) {
		c, err := ic.ParsePreset(spec)
		if err != nil {
			return err
		}
		campaigns = append(campaigns, c)
	}
	if len(campaigns) == 0 {
		// Demonstration set: one campaign per fault class.
		for _, spec := range []string{
			"clean", "blackhole:3", "grayhole:3:0.5", "drop:3:0.5",
			"corrupt:3:0.25", "spoof:3", "churn:3:30:10", "byzantine:3",
		} {
			c, err := ic.ParsePreset(spec)
			if err != nil {
				return err
			}
			campaigns = append(campaigns, c)
		}
	}

	levels, err := cliutil.ParseLevels(*levelsCSV)
	if err != nil {
		return err
	}

	base := ic.PaperBlackholeConfig()
	base.Nodes = *nodes
	base.Connections = *conns
	base.Seed = *seed
	base.SimTime = ic.Time(*simTime)

	names := make([]string, len(campaigns))
	for i, c := range campaigns {
		names[i] = c.Name
	}
	fmt.Fprintf(os.Stderr, "sweep: %d nodes, %v per run, %d runs/cell, campaigns %v\n",
		base.Nodes, base.SimTime, *runs, names)

	tables, err := ic.CampaignSweep(base, campaigns, levels, *runs, cliutil.Progress(*quiet))
	if err != nil {
		return err
	}
	rendered := tables.Throughput.StringWithCI() + "\n" +
		tables.Energy.StringWithCI() + "\n" +
		tables.Injected.String() + "\n" +
		tables.Suppressed.String() + "\n" +
		tables.Leaked.String() + "\n" +
		tables.VerifiesAvoided.String() + "\n"
	fmt.Print(rendered)
	return writeManifest(&experiment.GridRequest{
		Name: "faultsweep", Kind: experiment.GridCampaign,
		Blackhole: &base, Campaigns: campaigns, Levels: levels, Runs: *runs,
	}, rendered)
}

func main() {
	cliutil.Main("faultsweep", run)
}
