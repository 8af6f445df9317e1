// Command bench is the repository's benchmark: five workloads from one
// in-process replica to a grid served by icserved, eight end-to-end
// metrics taken with tracing off, and one traced run that gives every
// layer's numbers. See README.md in this directory.
//
//	go run ./scripts/bench                      all workloads, then the traced run
//	go run ./scripts/bench -sets 3 -record r.json
//	go run ./scripts/bench -compare a.json b.json
//	go run ./scripts/bench -smoke               every path at a tenth of the size
//
// The form BENCHMARK.json names runs one workload and prints one JSON
// object as its last line:
//
//	go run ./scripts/bench --workload fig8_sensor --seed 3 --seconds 10 --trace 0
//
// Everything is measured from outside the program under test: by timing
// calls into exported functions, and through the one hook a replica has
// (BlackholeConfig.Tracer). Each workload runs in a child process of its
// own, so peak memory and CPU time belong to that workload alone.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets a workload up; setup_s is the
// median. One is the measuring child's own set-up, the rest are children
// that exit after set-up.
const setupRepeats = 3

// goldenPath is where -update-golden writes, relative to the module root
// the command is run from (like the default -out).
const goldenPath = "scripts/bench/golden.json"

type options struct {
	seed   int64
	size   size
	outDir string
	golden goldenFile
}

// childTimeout is about three times what the slowest workload takes at this
// size (field_scale: ten ops of 3 to 6 s at the reference size): a hang
// becomes a named failure, never a stall.
func (o options) childTimeout() time.Duration {
	return time.Duration(4*o.size.seconds+80) * time.Second
}

// measured is one workload's run: the measuring child's observations, the
// golden verdict and the set-up-only children's observations.
type measured struct {
	res       childResult
	golden    string
	setupOnly []childResult
}

func (m measured) metrics() map[string]metric { return e2eMetrics(m.res, m.setupOnly) }

// measure runs one workload: the measuring child, then the set-up-only
// children.
func measure(ctx context.Context, o options, w workload, repeats int) (measured, error) {
	var m measured
	spec := childSpec{kind: w.name, procs: w.procs(), seed: o.seed, size: o.size, outDir: o.outDir, timeout: o.childTimeout()}
	if err := runChild(ctx, spec, &m.res); err != nil {
		return m, err
	}
	spec.setupOnly = true
	for i := 1; i < repeats; i++ {
		var r childResult
		if err := runChild(ctx, spec, &r); err != nil {
			return m, err
		}
		m.setupOnly = append(m.setupOnly, r)
	}
	m.golden = applyGolden(o.golden, &m.res)
	return m, nil
}

func runTraceChild(ctx context.Context, o options) (traceResult, error) {
	var t traceResult
	err := runChild(ctx, childSpec{kind: traceChild, procs: 1, seed: o.seed, size: o.size, outDir: o.outDir,
		timeout: 170 * time.Second}, &t)
	return t, err
}

func printMetrics(prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-12s %-36s %16.6g %s\n", prefix, name, m[name].Value, m[name].Unit)
	}
}

func printMeasured(m measured) {
	r := m.res
	metrics := m.metrics()
	if tail, _ := highestPercentile(r.Ops); tail < 90 {
		// Too few samples for a tail: users of this workload feel
		// throughput.
		delete(metrics, "op_p90_ms")
	}
	printMetrics(r.Workload, metrics)
	fmt.Printf("%-12s ops=%d (the sample count) failed=%d golden=%s digest=%s gomaxprocs=%d\n",
		r.Workload, r.Ops, r.Failed, m.golden, r.Digest[:16], r.GOMAXPROCS)
	if r.Replicas > 0 {
		fmt.Printf("%-12s %-36s %16.6g 1/s\n", r.Workload, "replicas_per_s",
			metrics["ops_per_s"].Value*float64(r.Replicas)/float64(r.Ops))
	}
	if r.StreamRefollows > 0 {
		fmt.Printf("%-12s %-36s %16d count (event streams the service closed early; see README)\n",
			r.Workload, "stream_refollows", r.StreamRefollows)
	}
	if r.Workload == "field_scale" {
		fmt.Printf("%-12s %-36s %16d count\n", r.Workload, "shard_fallbacks", r.ShardFallbacks)
	}
	for _, f := range r.Failures {
		fmt.Printf("%-12s FAILED %s\n", r.Workload, f)
	}
}

// contractLine is the object the driver reads from the last stdout line.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContract is the BENCHMARK.json form: one workload, end-to-end metrics
// with tracing off or per-layer metrics from the traced run.
func runContract(ctx context.Context, o options, name string, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var line contractLine
	if traced {
		// The traced run is the same for every workload: every layer's
		// probe, the served-job budget and the replica trace pair.
		t, err := runTraceChild(ctx, o)
		if err != nil {
			return err
		}
		printMetrics("layer", t.Metrics)
		line = contractLine{Correct: true, Attempted: len(t.Metrics), Metrics: t.Metrics}
	} else {
		m, err := measure(ctx, o, w, setupRepeats)
		if err != nil {
			return err
		}
		printMeasured(m)
		all, metrics := m.metrics(), map[string]metric{}
		for _, d := range e2eDefs {
			if d.driverBound > 0 {
				metrics[d.name] = all[d.name]
			}
		}
		line = contractLine{Correct: m.res.Failed == 0, Attempted: m.res.Ops, Failed: m.res.Failed, Metrics: metrics}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runSets is the full form: every workload with tracing off, then the
// traced run, sets times over; medians go into one record.
func runSets(ctx context.Context, o options, sets int, recordPath, goldenOut string) error {
	rec := record{Schema: recordSchema, Env: currentEnv(), Seed: o.seed, Seconds: o.size.seconds,
		Smoke: o.size.smoke, NumSets: sets, Layers: map[string]metric{}, LayerSets: map[string][]float64{},
		Unmeasured: unmeasured}
	fmt.Printf("host: %s, %s, commit %s\n", rec.Env.CPUs, rec.Env.GoVersion, rec.Env.Commit)
	for name, val := range rec.Env.ScrubbedIC {
		fmt.Printf("ambient %s=%q recorded, not obeyed\n", name, val)
	}
	rec.Workloads = make([]workloadRecord, len(workloads))
	failed := 0
	repeats := setupRepeats
	if goldenOut != "" || o.size.smoke {
		repeats = 1
	}
	for set := 0; set < sets; set++ {
		if sets > 1 {
			fmt.Printf("\n== set %d of %d ==\n", set+1, sets)
		}
		for i, w := range workloads {
			m, err := measure(ctx, o, w, repeats)
			if err != nil {
				return err
			}
			printMeasured(m)
			if err := rec.Workloads[i].add(m); err != nil {
				return err
			}
			failed += m.res.Failed
		}
		if goldenOut != "" {
			continue
		}
		t, err := runTraceChild(ctx, o)
		if err != nil {
			return err
		}
		printMetrics("layer", t.Metrics)
		for name, v := range t.Metrics {
			vals := append(rec.LayerSets[name], v.Value)
			if isCount(name) && vals[0] != v.Value {
				return fmt.Errorf("count %s changed between sets of one build: %v then %v", name, vals[0], v.Value)
			}
			rec.LayerSets[name] = vals
			rec.Layers[name] = metric{Value: median(vals), Unit: v.Unit}
		}
		rec.Budget = t.Budget
		fmt.Printf("trace: %d spans in %s\n", t.Spans, t.TracePath)
	}
	if sets > 1 {
		printAgreement(rec)
	}
	fmt.Println("\nunmeasured:")
	for _, u := range unmeasured {
		fmt.Println(" -", u)
	}
	if goldenOut != "" {
		for _, wr := range rec.Workloads {
			if wr.Failed == 0 {
				o.golden.Digests[goldenKey(wr.Name, wr.Ops, o.seed)] = wr.Digest
			}
		}
		o.golden.GOARCH = rec.Env.GOARCH
		if err := writeJSON(goldenOut, o.golden); err != nil {
			return err
		}
		fmt.Println("golden digests written to", goldenOut)
	}
	if err := writeJSON(recordPath, rec); err != nil {
		return err
	}
	fmt.Println("record written to", recordPath)
	if failed > 0 {
		return fmt.Errorf("%d op(s) failed", failed)
	}
	return nil
}

// add folds one set's run of the workload into its record row: counts
// accumulate, each metric gains a per-set value and reads as the median.
func (wr *workloadRecord) add(m measured) error {
	r := m.res
	if wr.Sets == nil {
		wr.Sets, wr.Metrics = map[string][]float64{}, map[string]metric{}
	} else if wr.Digest != r.Digest {
		return fmt.Errorf("%s: digest changed between sets of one build: %s then %s", r.Workload, wr.Digest, r.Digest)
	}
	wr.Name, wr.Ops, wr.Digest, wr.Golden = r.Workload, r.Ops, r.Digest, m.golden
	wr.ShardFallbacks, wr.Replicas = r.ShardFallbacks, r.Replicas
	wr.StreamRefollows += r.StreamRefollows
	wr.TailPercentile, _ = highestPercentile(r.Ops)
	wr.Attempted += r.Ops
	wr.Failed += r.Failed
	wr.Failures = append(wr.Failures, r.Failures...)
	for name, v := range m.metrics() {
		if name == "op_p90_ms" && wr.TailPercentile < 90 {
			continue // too few samples for a tail
		}
		wr.Sets[name] = append(wr.Sets[name], v.Value)
		wr.Metrics[name] = metric{Value: median(wr.Sets[name]), Unit: v.Unit}
	}
	return nil
}

// printAgreement shows, per workload and metric, whether this build's own
// sets agree within the metric's bound and floor.
func printAgreement(rec record) {
	fmt.Printf("\n%-12s %-16s %14s %9s  %s\n", "workload", "metric", "median", "spread", "sets agree")
	for _, wr := range rec.Workloads {
		for _, d := range e2eDefs {
			vals, ok := wr.Sets[d.name]
			if !ok {
				continue
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			verdict := verdictOK
			if d.regressed(lo, hi) || d.regressed(hi, lo) {
				verdict = verdictUnresolved
			}
			fmt.Printf("%-12s %-16s %14.4f %8.1f%%  %s\n", wr.Name, d.name, median(vals), 100*spread(vals), verdict)
		}
	}
}

func run(started time.Time) error {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the result object as the last line")
		seed         = flag.Int64("seed", 1, "the only source of replica seeds")
		seconds      = flag.Int("seconds", 10, "run length the op counts are sized for (30 gives the full sizes)")
		traceFlag    = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of the traced run")
		sets         = flag.Int("sets", 1, "run this many full sets and report medians")
		compare      = flag.Bool("compare", false, "compare two records: -compare base.json new.json")
		smoke        = flag.Bool("smoke", false, "a tenth of the op counts and minimum probe iterations")
		updateGolden = flag.Bool("update-golden", false, "merge this seed's and size's digests into "+goldenPath)
		outDir       = flag.String("out", "scripts/bench/out", "directory for trace.json, the record and temporary state")
		recordPath   = flag.String("record", "", "where the record goes (default <out>/record.json)")
		child        = flag.String("child", "", "internal: run as a child")
		setupOnly    = flag.Bool("setup-only", false, "internal: child exits after set-up")
	)
	flag.Parse()
	if *seconds < 1 || *sets < 1 {
		return errors.New("-seconds and -sets must be positive")
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: -compare base.json new.json")
		}
		base, err := readRecord(flag.Arg(0))
		if err != nil {
			return err
		}
		next, err := readRecord(flag.Arg(1))
		if err != nil {
			return err
		}
		if bad := compareRecords(os.Stdout, base, next); bad > 0 {
			return fmt.Errorf("%d row(s) regressed or failed an exactness check", bad)
		}
		return nil
	}
	z := size{seconds: *seconds, smoke: *smoke}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *child != "" {
		return childMain(*child, *seed, z, *setupOnly, *outDir, started)
	}
	goldenBytes, goldenOut := goldenJSON, ""
	if *updateGolden {
		goldenOut = goldenPath
		// Merge into the file as it is now, not as it was at build time.
		if b, err := os.ReadFile(goldenPath); err == nil {
			goldenBytes = b
		}
	}
	golden, err := loadGolden(goldenBytes)
	if err != nil {
		return err
	}
	o := options{seed: *seed, size: z, outDir: *outDir, golden: golden}
	if *workloadName != "" {
		// The driver allows a run 180 s.
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		defer cancel()
		return runContract(ctx, o, *workloadName, *traceFlag != 0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*sets)*20*time.Minute)
	defer cancel()
	if *recordPath == "" {
		*recordPath = filepath.Join(*outDir, "record.json")
	}
	return runSets(ctx, o, *sets, *recordPath, goldenOut)
}

func main() {
	if err := run(time.Now()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
