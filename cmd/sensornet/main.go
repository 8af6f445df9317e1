// Command sensornet regenerates Fig. 8 of the paper: miss/false alarm
// probabilities, energy consumption (with and without a target), detection
// latency, and localization error of a 100-node sensor network under the
// four sensor fault models, for the centralized baseline and the
// inner-circle solution at dependability levels L=2..7.
//
// Usage:
//
//	sensornet [-runs N] [-seed S] [-levels 2,3,4,5,6,7] [-weak] [-quick] [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// -weak reruns the sweep with the weaker target signal (K·T = 10000) the
// paper uses to probe the miss-alarm limits of large inner circles.
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
		runs      = flag.Int("runs", 5, "simulation runs per data point")
		seed      = flag.Int64("seed", 1, "base seed")
		levelsArg = flag.String("levels", "2,3,4,5,6,7", "inner-circle dependability levels")
		weak      = flag.Bool("weak", false, "use the weak target signal K·T = 10000")
		uniform   = flag.Bool("uniform", false, "uniform-random sensor placement instead of the jittered grid")
		fusionArg = flag.String("fusion", "cluster", "statistical fusion algorithm: cluster|mean|naive (ablation A8)")
		quick     = flag.Bool("quick", false, "reduced sweep for a fast preview")
		quiet     = flag.Bool("quiet", false, "suppress per-run progress")
		prof      = cliutil.AddProfileFlags(flag.CommandLine)
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
	base := ic.PaperSensorConfig()
	base.Seed = *seed
	if *weak {
		base.Model.KT = 10000
		base.UniformPlacement = true // thin patches drive the miss-alarm knee
	}
	if *uniform {
		base.UniformPlacement = true
	}
	switch *fusionArg {
	case "cluster":
		base.Fusion = ic.FusionCluster
	case "mean":
		base.Fusion = ic.FusionMean
	case "naive":
		base.Fusion = ic.FusionNaive
	default:
		return fmt.Errorf("unknown fusion algorithm %q", *fusionArg)
	}
	faults := ic.AllFaultKinds()
	if *quick {
		levels = []int{3, 5}
		faults = []ic.FaultKind{ic.FaultNone, ic.FaultInterference}
		*runs = 2
	}

	fmt.Fprintf(os.Stderr, "sweep: %d nodes, %v per run, %d runs/point, levels %v, K·T=%g\n",
		base.Nodes, base.SimTime, *runs, levels, base.Model.KT)

	tables, err := ic.SensorSweep(base, levels, faults, *runs, cliutil.Progress(*quiet))
	if err != nil {
		return err
	}
	var rendered string
	for _, key := range experiment.SensorTableKeys {
		rendered += tables[key].StringWithCI() + "\n"
	}
	fmt.Print(rendered)
	return writeManifest(&experiment.GridRequest{
		Name: "sensornet", Kind: experiment.GridSensor,
		Sensor: &base, Levels: levels, Faults: faults, Runs: *runs,
	}, rendered)
}

func main() {
	cliutil.Main("sensornet", run)
}
