// Command blackhole regenerates Fig. 7 of the paper: network throughput
// (a) and per-node energy consumption (b) of an AODV network under
// black-hole attack, for the plain protocol and the inner-circle defense
// at dependability levels L=1 and L=2, across 0..10 malicious nodes.
//
// Usage:
//
//	blackhole [-runs N] [-seed S] [-time T] [-max-malicious M] [-quick] [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// The paper averages 50 runs per point; -runs trades completeness for
// wall-clock time (each full-scale run simulates 300 s of a 50-node
// network and takes about a second).
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
		runs    = flag.Int("runs", 5, "simulation runs per data point")
		seed    = flag.Int64("seed", 1, "base seed")
		simTime = flag.Float64("time", 300, "simulated seconds per run")
		maxMal  = flag.Int("max-malicious", 10, "largest malicious-node count")
		step    = flag.Int("step", 2, "malicious-node count step")
		gray    = flag.Float64("gray", 0, "gray-hole probability (0 = classic black holes)")
		quick   = flag.Bool("quick", false, "reduced sweep for a fast preview")
		quiet   = flag.Bool("quiet", false, "suppress per-run progress")
		prof    = cliutil.AddProfileFlags(flag.CommandLine)
	)
	applyShards := cliutil.AddShardsFlag(flag.CommandLine)
	writeManifest := cliutil.AddManifestFlag(flag.CommandLine)
	flag.Parse()
	if err := applyShards(); err != nil {
		return err
	}

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	base := ic.PaperBlackholeConfig()
	base.Seed = *seed
	base.SimTime = ic.Time(*simTime)
	base.GrayProb = *gray

	var counts []int
	for m := 0; m <= *maxMal; m += *step {
		counts = append(counts, m)
	}
	levels := []int{1, 2}
	if *quick {
		base.SimTime = 60
		counts = []int{0, 2, 6, 10}
		levels = []int{1}
		*runs = 2
	}

	fmt.Fprintf(os.Stderr, "sweep: %d nodes, %v per run, %d runs/point, malicious counts %v\n",
		base.Nodes, base.SimTime, *runs, counts)

	throughput, energy, err := ic.BlackholeSweep(base, counts, levels, *runs, cliutil.Progress(*quiet))
	if err != nil {
		return err
	}
	rendered := throughput.StringWithCI() + "\n" + energy.StringWithCI() + "\n"
	fmt.Print(rendered)
	return writeManifest(&experiment.GridRequest{
		Name: "blackhole", Kind: experiment.GridBlackhole,
		Blackhole: &base, Malicious: counts, Levels: levels, Runs: *runs,
	}, rendered)
}

func main() {
	cliutil.Main("blackhole", run)
}
