// Command icsim is a general-purpose scenario driver for the inner-circle
// AODV network: configure scale, mobility, attack and defense from flags,
// run one simulation, and get delivery/energy results plus a wire-level
// traffic breakdown by message type — the quickest way to see where an
// inner-circle deployment spends its bytes.
//
// Usage:
//
//	icsim [-nodes 50] [-region 1000] [-speed 10] [-time 120]
//	      [-attackers 0] [-gray 0] [-ic] [-L 1] [-seed 1] [-trace 0]
package main

import (
	"flag"
	"fmt"
	"os"

	ic "innercircle"
	"innercircle/internal/cliutil"
)

func run() error {
	var (
		nodes     = flag.Int("nodes", 50, "number of nodes")
		region    = flag.Float64("region", 1000, "square region side, metres")
		speed     = flag.Float64("speed", 10, "random waypoint speed, m/s (0 = static grid)")
		simTime   = flag.Float64("time", 120, "simulated seconds")
		attackers = flag.Int("attackers", 0, "black/gray hole count")
		gray      = flag.Float64("gray", 0, "gray-hole probability (0 = full black holes)")
		icOn      = flag.Bool("ic", false, "enable the inner-circle defense")
		level     = flag.Int("L", 1, "dependability level")
		seed      = flag.Int64("seed", 1, "seed")
		traceN    = flag.Int("trace", 0, "print the last N wire events")
		prof      = cliutil.AddProfileFlags(flag.CommandLine)
	)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	cfg := ic.PaperBlackholeConfig()
	cfg.Nodes = *nodes
	cfg.Region = *region
	cfg.Speed = *speed
	cfg.SimTime = ic.Time(*simTime)
	cfg.Malicious = *attackers
	cfg.GrayProb = *gray
	cfg.IC = *icOn
	cfg.L = *level
	cfg.Seed = *seed

	// The tracer observes the link layer and changes nothing it sees, so
	// the numbers below are the same with and without it.
	if *traceN > 0 {
		cfg.Tracer = ic.NewTracer(*traceN)
	}
	res, err := ic.RunBlackhole(cfg)
	if err != nil {
		return err
	}
	mode := "plain AODV"
	if *icOn {
		mode = fmt.Sprintf("inner-circle AODV (L=%d)", *level)
	}
	fmt.Printf("scenario: %d nodes on %.0fx%.0f m², %s, %d attackers", *nodes, *region, *region, mode, *attackers)
	if *gray > 0 {
		fmt.Printf(" (gray, p=%.2f)", *gray)
	}
	fmt.Printf(", %v\n", cfg.SimTime)
	fmt.Printf("throughput: %.1f%% (%d/%d packets)\n", res.Throughput, res.Received, res.Sent)
	fmt.Printf("energy:     %.2f J/node\n", res.EnergyPerNode)

	if tr := cfg.Tracer; tr != nil {
		fmt.Println("\ntraffic breakdown (transmissions):")
		tr.WriteSummary(os.Stdout)
		fmt.Printf("\nlast %d wire events:\n", *traceN)
		tr.WriteEvents(os.Stdout)
	}
	return nil
}

func main() {
	cliutil.Main("icsim", run)
}
