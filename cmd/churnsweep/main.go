// Command churnsweep sweeps membership churn over the Fig. 8 sensor
// network: inner-circle configurations at each dependability level run
// under increasing crash-and-rejoin rates, and the tables report what
// churn costs in detection quality and energy next to the lifecycle
// accounting (membership transitions, reshares executed, vote rounds
// aborted, final key epoch).
//
// The churn=0 column is exactly the seed sensor replica — the control
// against which the other columns are read. Same seed and axes produce
// byte-identical tables at any IC_WORKERS and IC_SHARDS setting.
//
// Usage:
//
//	churnsweep [-levels 2,3,5] [-churns 0,2,4,8] [-runs N] [-seed S]
//	           [-time T] [-leaves N] [-downtime D] [-policy event|interval|off]
//	           [-reshare-interval D] [-refresh-interval D] [-protect N]
//	           [-quick] [-quiet]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	ic "innercircle"
	"innercircle/internal/cliutil"
	"innercircle/internal/experiment"
)

// parseChurns parses the churn-rate axis; unlike dependability levels,
// 0 is a valid (and recommended) control column.
func parseChurns(s string) ([]int, error) {
	var out []int
	for _, part := range cliutil.SplitCSV(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad churn rate %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func run() error {
	var (
		runs            = flag.Int("runs", 5, "simulation runs per data point")
		seed            = flag.Int64("seed", 1, "base seed")
		levelsArg       = flag.String("levels", "2,3,5", "inner-circle dependability levels")
		churnsArg       = flag.String("churns", "0,2,4,8", "crash-and-rejoin counts per run (0 = churn-free control)")
		simTime         = flag.Float64("time", 0, "simulated seconds per run (0 keeps the Fig. 8 box)")
		leaves          = flag.Int("leaves", 0, "permanent departures per run")
		downtime        = flag.Float64("downtime", 0, "seconds a crashed node stays down (0 = default)")
		policy          = flag.String("policy", "", "reshare policy: event, interval or off (empty = event)")
		reshareInterval = flag.Float64("reshare-interval", 0, "seconds between reshares (policy interval)")
		refreshInterval = flag.Float64("refresh-interval", 0, "seconds between proactive share refreshes (0 = none)")
		protect         = flag.Int("protect", 0, "low node indices never churned (0 = default: the observer)")
		quick           = flag.Bool("quick", false, "reduced sweep for a fast preview")
		quiet           = flag.Bool("quiet", false, "suppress per-run progress")
		prof            = cliutil.AddProfileFlags(flag.CommandLine)
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

	levels, err := cliutil.ParseLevels(*levelsArg)
	if err != nil {
		return err
	}
	churns, err := parseChurns(*churnsArg)
	if err != nil {
		return err
	}

	base := ic.PaperSensorConfig()
	base.Seed = *seed
	if *simTime > 0 {
		base.SimTime = ic.Time(*simTime)
	}
	// The template every non-zero churn column inherits (the rate itself
	// is the column axis).
	base.Churn = &ic.Churn{
		Leaves:          *leaves,
		Downtime:        ic.Duration(*downtime),
		Reshare:         *policy,
		ReshareInterval: ic.Duration(*reshareInterval),
		RefreshInterval: ic.Duration(*refreshInterval),
		Protect:         *protect,
	}
	if *quick {
		levels = []int{3}
		churns = []int{0, 2}
		*runs = 2
		base.SimTime = 60
		base.TargetStart = 20
		base.TargetPeriod = 40
		base.TargetDuration = 15
	}

	fmt.Fprintf(os.Stderr, "sweep: %d nodes, %v per run, %d runs/point, levels %v, churn rates %v\n",
		base.Nodes, base.SimTime, *runs, levels, churns)

	tables, err := ic.ChurnSweep(base, levels, churns, *runs, cliutil.Progress(*quiet))
	if err != nil {
		return err
	}
	rendered := tables.Miss.StringWithCI() + "\n" +
		tables.Energy.StringWithCI() + "\n" +
		tables.Events.String() + "\n" +
		tables.Reshares.String() + "\n" +
		tables.Aborted.String() + "\n" +
		tables.Epoch.String() + "\n"
	fmt.Print(rendered)
	return writeManifest(&experiment.GridRequest{
		Name: "churnsweep", Kind: experiment.GridChurn,
		Sensor: &base, Levels: levels, Churns: churns, Runs: *runs,
	}, rendered)
}

func main() {
	cliutil.Main("churnsweep", run)
}
