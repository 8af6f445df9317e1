// Command icsweep runs the paper's parameter sweeps. Each subcommand
// builds one experiment.GridRequest — the paper grid of its kind
// (internal/experiment/presets.go) adjusted by its flags — and evaluates
// it through experiment.RunGrid; stdout is GridRequest.Render of the
// result and nothing else, so it is byte-identical to what icserved
// serves for the same grid, at any IC_WORKERS setting and -shards count.
//
// Usage:
//
//	icsweep blackhole [-time T] [-max-malicious M] [-step S] [-gray P]
//	icsweep sensor    [-levels 2,3,4,5,6,7] [-weak] [-uniform] [-fusion cluster|mean|naive]
//	icsweep campaign  [-campaign a.json,b.json] [-preset spec,spec,...]
//	                  [-time T] [-nodes N] [-conns C] [-levels 1,2]
//	icsweep churn     [-levels 2,3,5] [-churns 0,2,4,8] [-time T] [-leaves N]
//	                  [-downtime D] [-policy event|interval|off]
//	                  [-reshare-interval D] [-refresh-interval D] [-protect N]
//
// blackhole is Fig. 7 (throughput and energy of AODV under black-hole
// attack), sensor is Fig. 8 (miss/false alarms, energy, latency and
// localization error under the sensor fault models; -weak uses the weaker
// target signal K·T = 10000), campaign sweeps fault campaigns over the
// Fig. 7 network and adds the neutralization-coverage counters, churn
// sweeps crash-and-rejoin rates over the Fig. 8 network (churn=0 is the
// churn-free control).
//
// Campaigns come from JSON files (-campaign, see README for the schema),
// from preset shorthands (-preset, e.g. blackhole:3 grayhole:3:0.5
// corrupt:3:0.25 spoof:3 churn:3:30:10 byzantine:3 drop:3:0.3 clean), or,
// when neither flag is given, from the demonstration set covering every
// fault class.
//
// Every subcommand takes -runs N (the paper averages 50), -seed S, -quiet,
// -manifest out.json and the four pprof flags; all but campaign take
// -quick (the kind's reduced grid, 2 runs per point). sensor and churn —
// the kinds whose replicas can run partitioned — take -shards N, which
// sets the grid's sensor.shards field (what an icserved client puts in its
// request), and -shardstats, which prints each sharded replica's per-shard
// utilization, and why it ran on fewer shards than asked, to stderr. N is
// an upper bound: among the planner's reasons, a replica the core budget
// leaves one executor slot runs on one kernel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"innercircle/internal/cliutil"
	"innercircle/internal/experiment"
	"innercircle/internal/faults"
	"innercircle/internal/scenario"
	"innercircle/internal/sim"
)

// options holds the flags every subcommand shares.
type options struct {
	runs          int
	seed          int64
	quick, quiet  bool
	prof          *cliutil.Profile
	shards        int  // -shards (sensor, churn)
	shardStats    bool // -shardstats (sensor, churn)
	writeManifest func(grid *experiment.GridRequest, renderedTables string) error
	// grid builds the subcommand's request once the flags are parsed.
	grid func() (*experiment.GridRequest, error)
}

// sweep is one subcommand.
type sweep struct {
	// name labels the grid in its manifest. It is the name of the binary
	// the subcommand replaced: spec_sha256 covers it, and manifests stay
	// comparable across that change.
	name string
	// quick and shards say whether the kind has the flags: there is no
	// reduced campaign grid to preview, and only a sensor field can run
	// partitioned (Fig. 7 and campaign replicas are mobile).
	quick, shards bool
	// flags registers the kind's own flags and returns options.grid.
	flags func(fs *flag.FlagSet, o *options) func() (*experiment.GridRequest, error)
}

var sweeps = map[string]sweep{
	experiment.GridBlackhole: {name: "blackhole", quick: true, flags: blackholeFlags},
	experiment.GridSensor:    {name: "sensornet", quick: true, shards: true, flags: sensorFlags},
	experiment.GridCampaign:  {name: "faultsweep", flags: campaignFlags},
	experiment.GridChurn:     {name: "churnsweep", quick: true, shards: true, flags: churnFlags},
}

// newFlagSet registers the shared flags, then the kind's own.
func newFlagSet(kind string) (*flag.FlagSet, *options) {
	sw := sweeps[kind]
	fs := flag.NewFlagSet("icsweep "+kind, flag.ExitOnError)
	o := &options{}
	fs.IntVar(&o.runs, "runs", 5, "simulation runs per data point")
	fs.Int64Var(&o.seed, "seed", 1, "base seed")
	if sw.quick {
		fs.BoolVar(&o.quick, "quick", false, "reduced sweep for a fast preview")
	}
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-run progress")
	o.prof = cliutil.AddProfileFlags(fs)
	if sw.shards {
		fs.IntVar(&o.shards, "shards", 0, "partition each replica across at most N event-kernel shards (the grid's sensor.shards field; -shardstats says why a replica ran on fewer)")
		fs.BoolVar(&o.shardStats, "shardstats", false, "print per-shard utilization (events, null republishes, blocked time) after each sharded replica, and why one ran on fewer shards than asked")
	}
	o.writeManifest = cliutil.AddManifestFlag(fs)
	o.grid = sw.flags(fs, o)
	return fs, o
}

func blackholeFlags(fs *flag.FlagSet, o *options) func() (*experiment.GridRequest, error) {
	def := experiment.Fig7Grid(0, 0, false)
	counts := def.Malicious
	simTime := fs.Float64("time", float64(def.Blackhole.SimTime), "simulated seconds per run")
	maxMal := fs.Int("max-malicious", counts[len(counts)-1], "largest malicious-node count")
	step := fs.Int("step", counts[1]-counts[0], "malicious-node count step")
	gray := fs.Float64("gray", 0, "gray-hole probability (0 = classic black holes)")
	return func() (*experiment.GridRequest, error) {
		if *step < 1 {
			return nil, fmt.Errorf("-step %d: the malicious-node count step must be at least 1", *step)
		}
		g := experiment.Fig7Grid(o.seed, o.runs, o.quick)
		g.Blackhole.GrayProb = *gray
		if !o.quick {
			g.Blackhole.SimTime = sim.Time(*simTime)
			g.Malicious = nil
			for m := 0; m <= *maxMal; m += *step {
				g.Malicious = append(g.Malicious, m)
			}
		}
		return g, nil
	}
}

func sensorFlags(fs *flag.FlagSet, o *options) func() (*experiment.GridRequest, error) {
	def := experiment.Fig8Grid(0, 0, false)
	levelsArg := fs.String("levels", joinInts(def.Levels), "inner-circle dependability levels")
	weak := fs.Bool("weak", false, "use the weak target signal K·T = 10000")
	uniform := fs.Bool("uniform", false, "uniform-random sensor placement instead of the jittered grid")
	fusionArg := fs.String("fusion", "cluster", "statistical fusion algorithm: cluster|mean|naive (ablation A8)")
	return func() (*experiment.GridRequest, error) {
		levels, err := parseInts(*levelsArg, 1, "level")
		if err != nil {
			return nil, err
		}
		g := experiment.Fig8Grid(o.seed, o.runs, o.quick)
		if *weak {
			g.Sensor.Model.KT = 10000
			g.Sensor.UniformPlacement = true // thin patches drive the miss-alarm knee
		}
		if *uniform {
			g.Sensor.UniformPlacement = true
		}
		switch *fusionArg {
		case "cluster":
			g.Sensor.Fusion = experiment.FusionCluster
		case "mean":
			g.Sensor.Fusion = experiment.FusionMean
		case "naive":
			g.Sensor.Fusion = experiment.FusionNaive
		default:
			return nil, fmt.Errorf("unknown fusion algorithm %q", *fusionArg)
		}
		if !o.quick {
			g.Levels = levels
		}
		return g, nil
	}
}

func campaignFlags(fs *flag.FlagSet, o *options) func() (*experiment.GridRequest, error) {
	def := experiment.CoverageGrid(0, 0, false)
	campaignCSV := fs.String("campaign", "", "comma-separated campaign JSON files")
	presetCSV := fs.String("preset", "", "comma-separated preset specs (see package doc)")
	simTime := fs.Float64("time", float64(def.Blackhole.SimTime), "simulated seconds per run")
	nodes := fs.Int("nodes", def.Blackhole.Nodes, "network size")
	conns := fs.Int("conns", def.Blackhole.Connections, "CBR connections (count-selected attackers come from the remaining nodes)")
	levelsCSV := fs.String("levels", joinInts(def.Levels), "comma-separated dependability levels")
	return func() (*experiment.GridRequest, error) {
		g := experiment.CoverageGrid(o.seed, o.runs, false)
		var campaigns []faults.Campaign
		for _, path := range cliutil.SplitCSV(*campaignCSV) {
			c, err := faults.Load(path)
			if err != nil {
				return nil, err
			}
			campaigns = append(campaigns, c)
		}
		for _, spec := range cliutil.SplitCSV(*presetCSV) {
			c, err := faults.ParsePreset(spec)
			if err != nil {
				return nil, err
			}
			campaigns = append(campaigns, c)
		}
		if len(campaigns) > 0 {
			g.Campaigns = campaigns
		}
		levels, err := parseInts(*levelsCSV, 1, "level")
		if err != nil {
			return nil, err
		}
		g.Levels = levels
		g.Blackhole.Nodes = *nodes
		g.Blackhole.Connections = *conns
		g.Blackhole.SimTime = sim.Time(*simTime)
		return g, nil
	}
}

// parseInts parses a comma-separated axis of integers no smaller than
// min. Dependability levels start at 1 (L counts the extra confirming
// neighbors, so 0 would silently mean "whatever the base config says");
// churn rates start at 0, the churn-free control column.
func parseInts(s string, min int, what string) ([]int, error) {
	var out []int
	for _, part := range cliutil.SplitCSV(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v < min {
			return nil, fmt.Errorf("bad %s %q", what, part)
		}
		out = append(out, v)
	}
	return out, nil
}

func churnFlags(fs *flag.FlagSet, o *options) func() (*experiment.GridRequest, error) {
	def := experiment.ChurnGrid(0, 0, false)
	levelsArg := fs.String("levels", joinInts(def.Levels), "inner-circle dependability levels")
	churnsArg := fs.String("churns", joinInts(def.Churns), "crash-and-rejoin counts per run (0 = churn-free control)")
	simTime := fs.Float64("time", 0, "simulated seconds per run (0 keeps the Fig. 8 box)")
	leaves := fs.Int("leaves", 0, "permanent departures per run")
	downtime := fs.Float64("downtime", 0, "seconds a crashed node stays down (0 = default)")
	policy := fs.String("policy", "", "reshare policy: event, interval or off (empty = event)")
	reshareInterval := fs.Float64("reshare-interval", 0, "seconds between reshares (policy interval)")
	refreshInterval := fs.Float64("refresh-interval", 0, "seconds between proactive share refreshes (0 = none)")
	protect := fs.Int("protect", 0, "low node indices never churned (0 = default: the observer)")
	return func() (*experiment.GridRequest, error) {
		levels, err := parseInts(*levelsArg, 1, "level")
		if err != nil {
			return nil, err
		}
		churns, err := parseInts(*churnsArg, 0, "churn rate")
		if err != nil {
			return nil, err
		}
		g := experiment.ChurnGrid(o.seed, o.runs, o.quick)
		// The template every non-zero churn column inherits (the rate
		// itself is the column axis).
		g.Sensor.Churn = &scenario.Churn{
			Leaves:          *leaves,
			Downtime:        sim.Duration(*downtime),
			Reshare:         *policy,
			ReshareInterval: sim.Duration(*reshareInterval),
			RefreshInterval: sim.Duration(*refreshInterval),
			Protect:         *protect,
		}
		if !o.quick {
			g.Levels, g.Churns = levels, churns
			if *simTime > 0 {
				g.Sensor.SimTime = sim.Time(*simTime)
			}
		}
		return g, nil
	}
}

// joinInts renders a preset axis as the comma-separated default of the
// flag that overrides it.
func joinInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// buildGrid parses a subcommand line into the grid it describes.
func buildGrid(args []string) (*experiment.GridRequest, *options, error) {
	if len(args) == 0 || sweeps[args[0]].flags == nil {
		return nil, nil, fmt.Errorf("usage: icsweep <blackhole|sensor|campaign|churn> [flags] (-h after the kind lists them)")
	}
	fs, o := newFlagSet(args[0])
	fs.Parse(args[1:]) // ExitOnError
	g, err := o.grid()
	if err != nil {
		return nil, nil, err
	}
	g.Name = sweeps[args[0]].name
	if g.Sensor != nil {
		g.Sensor.Shards = o.shards
		if o.shardStats {
			g.Sensor.ShardStats = os.Stderr
		}
	}
	return g, o, nil
}

func run(args []string, stdout io.Writer) error {
	g, o, err := buildGrid(args)
	if err != nil {
		return err
	}
	stop, err := o.prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	fmt.Fprintf(os.Stderr, "sweep %s: %d runs/point, levels %v, seed %d\n", g.Kind, g.Runs, g.Levels, g.BaseSeed())
	var progress io.Writer
	if !o.quiet {
		progress = os.Stderr
	}
	tables, err := experiment.RunGrid(g, progress)
	if err != nil {
		return err
	}
	rendered := g.Render(tables)
	fmt.Fprint(stdout, rendered)
	return o.writeManifest(g, rendered)
}

func main() {
	cliutil.Main("icsweep", func() error { return run(os.Args[1:], os.Stdout) })
}
