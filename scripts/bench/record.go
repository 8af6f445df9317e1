package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"innercircle/internal/artifact"
)

// e2eDef defines one end-to-end metric: its unit, which way is better, and
// how much worse than a baseline counts as a regression in -compare — more
// than bound (a share of the baseline) and more than floor (absolute), both.
// driverBound is the metric's bound in BENCHMARK.json, zero when the metric
// is not carried to the driver (README.md says why each is or is not).
type e2eDef struct {
	name, unit   string
	higherBetter bool
	bound, floor float64
	driverBound  float64
}

// e2eDefs are the end-to-end metrics, measured with tracing off. fail_ratio
// regresses on any increase.
var e2eDefs = []e2eDef{
	{"setup_s", "s", false, 0.25, 0.5, 0.25},
	{"ops_per_s", "1/s", true, 0.10, 0, 0.25},
	{"op_p50_ms", "ms", false, 0.10, 1, 0},
	{"op_p90_ms", "ms", false, 0.10, 1, 0},
	{"cpu_s_per_op", "s", false, 0.10, 0.005, 0},
	{"alloc_mb_per_op", "MB", false, 0.02, 0.1, 0.2},
	{"peak_rss_mb", "MB", false, 0.10, 5, 0.25},
	{"fail_ratio", "ratio", false, 0, 0, 0},
}

// layerDef names one per-layer metric of the traced run.
type layerDef struct {
	name, unit   string
	higherBetter bool
}

func lower(unit string, names ...string) []layerDef {
	out := make([]layerDef, len(names))
	for i, n := range names {
		out[i] = layerDef{name: n, unit: unit}
	}
	return out
}

// layerDefs lists every per-layer metric, layer by layer (the layer is the
// package name before the first dot). The traced run must produce exactly
// these; README.md says which end-to-end metric each should move.
var layerDefs = slices.Concat(
	lower("ns", "sim.fire_ns", "sim.churn10k_ns", "sim.timer_reset_ns", "sim.cancel_ns"),
	lower("us", "radio.send_static100_us", "radio.send_mobile50_us", "radio.send_static4k_us"),
	lower("us", "mac.unicast_us", "mac.contend100_us"),
	[]layerDef{{"mac.contend100_delivered_ratio", "ratio", true}},
	lower("ms/s", "sts.field100_ms_per_sim_s"),
	lower("count", "sts.beacons"),
	lower("us", "thresh.sim_sign_us", "thresh.sim_verify_us", "thresh.rsa1024_partial_us",
		"thresh.rsa1024_combine_us", "thresh.rsa1024_verify_us", "thresh.reshare_us"),
	lower("ms", "thresh.dkg_rsa_ms"),
	lower("us", "nsl.sign512_us", "nsl.verify512_us"),
	lower("ms", "nsl.keygen512_ms"),
	lower("ns", "sigcache.hit_ns", "sigcache.miss_ns"),
	lower("ms", "vote.det_round_sim_ms", "vote.det_round_rsa_ms", "vote.stat_round_sim_ms"),
	[]layerDef{{"vote.memo_hit_ratio", "ratio", true}},
	lower("us", "fusion.ftcluster15_us", "fusion.ftmean15_us", "fusion.trilaterate_all10_us"),
	lower("ms", "aodv.discovery_ms"),
	lower("us", "aodv.data_hop_us"),
	lower("count", "aodv.rreq_per_discovery"),
	lower("ms", "diffusion.flood100_ms"),
	lower("us", "diffusion.data_us"),
	lower("ms", "node.build50_ms", "node.build100_ic_ms", "node.build4000_ms", "node.keyset100_ms"),
	lower("us", "scenario.partition4000_us"),
	lower("us", "experiment.points_us", "experiment.canonical_us", "experiment.pool_job_us"),
	lower("ms", "experiment.tables_ms"),
	lower("us", "experiment.render_us", "experiment.csv_us"),
	lower("us", "artifact.put_result_us", "artifact.put_manifest_us", "artifact.get_manifest_us", "artifact.get_result_us"),
	lower("ms", "artifact.verify_ms_per_100"),
	lower("ms", "serve.submit_ms", "serve.wait_cold_ms", "serve.wait_warm_ms", "serve.tables_ms", "serve.csv_ms",
		"serve.manifest_ms", "serve.artifact_get_ms", "serve.residual_cold_ms", "serve.residual_warm_ms"),
	lower("%", "trace.overhead_pct"),
	lower("count", "wire.aodv.Data.frames", "wire.aodv.RREQ.frames", "wire.aodv.RREP.frames", "wire.aodv.RERR.frames",
		"wire.sts.BeaconMsg.frames", "wire.vote.ProposeMsg.frames", "wire.vote.AckMsg.frames", "wire.vote.AgreedMsg.frames"),
	lower("B", "wire.bytes_total"),
)

// checkLayers verifies a traced run produced exactly the defined metrics,
// each in its unit: a missing one would otherwise read as a measurement.
func checkLayers(got map[string]metric) error {
	for _, d := range layerDefs {
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("traced run did not report %s", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("%s reported in %q, defined in %q", d.name, m.Unit, d.unit)
		}
	}
	if len(got) != len(layerDefs) {
		return fmt.Errorf("traced run reported %d metrics, %d are defined", len(got), len(layerDefs))
	}
	return nil
}

// isCount reports whether a per-layer metric is a deterministic count:
// work done, exact for a seed, which two builds must agree on.
func isCount(name string) bool {
	switch name {
	case "sts.beacons", "mac.contend100_delivered_ratio":
		return true
	}
	return strings.HasPrefix(name, "wire.")
}

// unmeasured says plainly what this benchmark cannot see from outside.
var unmeasured = []string{
	"the per-layer split inside one Fig. 7 / Fig. 8 replica (kernel vs radio vs MAC vs STS vs vote vs routing): blackholeSpec/sensorSpec are unexported and ReplicaSpec.Run is one call; the probes give unit costs and wire.* gives work done, in-program spans are a later issue",
	"time inside serve.runJob between its steps: the pipeline replay re-performs the steps through public calls and reports the rest as serve.residual_*",
	"parallel speed-up: in-process workloads run on one P by design, served ones at min(nproc, 4); on a 2-vCPU host nothing here is evidence about more cores",
	"device behaviour of the store: fsync and reads hit whatever backs the checkout, likely the page cache",
}

// envBlock labels a record with the host it was taken on, so a 2-vCPU
// number is never read as a parallel speed-up.
type envBlock struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"nproc"`
	// ServedCPUs is the GOMAXPROCS of the served workloads' children and
	// the traced child; in-process workloads run at 1.
	ServedCPUs int    `json:"served_gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	// CPUs is the host label quoted next to every number.
	CPUs   string `json:"cpus"`
	Commit string `json:"commit"`
	// ScrubbedIC holds the ambient IC_* variables, removed from every
	// child's environment: recorded, not obeyed.
	ScrubbedIC map[string]string `json:"scrubbed_ic_env,omitempty"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func currentEnv() envBlock {
	_, scrubbed := scrubbedEnv(1)
	if len(scrubbed) == 0 {
		scrubbed = nil
	}
	model := cpuModel()
	return envBlock{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), ServedCPUs: servedCPUs(), CPUModel: model,
		CPUs: fmt.Sprintf("%d-vCPU host (%s); in-process workloads at GOMAXPROCS=1, served at %d",
			runtime.NumCPU(), model, servedCPUs()),
		Commit: artifact.GitRev(), ScrubbedIC: scrubbed,
	}
}

// workloadRecord is one workload's row of a record. Metrics holds the
// median over sets; Sets the per-set values behind each median.
type workloadRecord struct {
	Name string `json:"name"`
	Ops  int    `json:"ops"`
	// Ops is also the op-time sample count behind op_p50_ms;
	// TailPercentile is the highest percentile that count supports (0 when
	// none).
	TailPercentile float64  `json:"tail_percentile"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	Failures       []string `json:"failures,omitempty"`
	Digest         string   `json:"digest"`
	Golden         string   `json:"golden"` // ok | mismatch | unchecked
	ShardFallbacks int      `json:"shard_fallbacks"`
	Replicas       int      `json:"replicas,omitempty"`
	// StreamRefollows counts, over all sets, event streams the service
	// closed early and the op followed again (waitJob).
	StreamRefollows int                  `json:"stream_refollows,omitempty"`
	Metrics         map[string]metric    `json:"metrics"`
	Sets            map[string][]float64 `json:"sets"`
}

// record is the one JSON document a run writes.
type record struct {
	Schema     string               `json:"schema"`
	Env        envBlock             `json:"env"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Smoke      bool                 `json:"smoke,omitempty"`
	NumSets    int                  `json:"sets"`
	Workloads  []workloadRecord     `json:"workloads"`
	Layers     map[string]metric    `json:"layers"`
	LayerSets  map[string][]float64 `json:"layer_sets,omitempty"`
	Budget     []jobBudget          `json:"service_budget,omitempty"`
	Unmeasured []string             `json:"unmeasured"`
}

const recordSchema = "innercircle-bench/1"

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// wallS is the timed window: the ops back to back.
func (r childResult) wallS() float64 { return sum(r.OpMs) / 1e3 }

// e2eMetrics derives the end-to-end metrics from a child's observations
// and the set-up-only children's. Times are at reference host speed (see
// calib.go); host_speed and busy_share are what was applied, so the raw
// reading is recoverable. cpu_s_per_op and alloc_mb_per_op are per-op
// medians: a workload whose ops now and then cost double (field_scale's
// single-kernel fallbacks) keeps a steady typical op, and the total shows
// in ops_per_s.
func e2eMetrics(r childResult, setupOnly []childResult) map[string]metric {
	ops := float64(max(r.Ops, 1))
	wallS, cpuS := r.wallS(), sum(r.OpCPUS)
	speed := hostSpeed(r.CalMs)
	scale := atReferenceSpeed(wallS, cpuS, speed)
	setups := make([]float64, 0, 1+len(setupOnly))
	for _, c := range append([]childResult{r}, setupOnly...) {
		setups = append(setups, c.SetupS*atReferenceSpeed(c.SetupS, c.SetupCPUS, hostSpeed(c.SetupCalMs)))
	}
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {ops / (wallS * scale), "1/s"},
		"op_p50_ms":       {median(r.OpMs) * scale, "ms"},
		"op_p90_ms":       {percentile(r.OpMs, 90) * scale, "ms"},
		"cpu_s_per_op":    {median(r.OpCPUS) * speed, "s"},
		"alloc_mb_per_op": {median(r.OpAllocMB), "MB"},
		"peak_rss_mb":     {float64(r.PeakRSSKB) / 1024, "MB"},
		"fail_ratio":      {float64(r.Failed) / ops, "ratio"},
		"host_speed":      {speed, "ratio"},
		"busy_share":      {min(1, cpuS/wallS), "ratio"},
	}
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile pins result digests per workload, op count and seed. Digests
// are only comparable on the architecture they were taken on (floating
// point contraction differs across GOARCH), so other hosts run unchecked.
type goldenFile struct {
	GOARCH  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
}

func loadGolden(b []byte) (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if g.Digests == nil {
		g.Digests = map[string]string{}
	}
	return g, nil
}

func goldenKey(workload string, ops int, seed int64) string {
	return fmt.Sprintf("%s/ops=%d/seed=%d", workload, ops, seed)
}

// Golden verdicts.
const (
	goldenOK        = "ok"
	goldenMismatch  = "mismatch"
	goldenUnchecked = "unchecked"
)

func (g goldenFile) check(key, digest string) string {
	want, ok := g.Digests[key]
	switch {
	case !ok || g.GOARCH != runtime.GOARCH:
		return goldenUnchecked
	case want == digest:
		return goldenOK
	}
	return goldenMismatch
}

// applyGolden folds the golden verdict into a child's result: a digest
// mismatch means the outputs are wrong without saying which, so every op
// counts as failed.
func applyGolden(g goldenFile, r *childResult) string {
	verdict := g.check(goldenKey(r.Workload, r.Ops, r.Seed), r.Digest)
	if verdict == goldenMismatch {
		r.Failed = r.Ops
		r.Failures = append(r.Failures, "result digest "+r.Digest+" differs from golden.json")
	}
	return verdict
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != recordSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, recordSchema)
	}
	return r, nil
}

// Comparison verdicts.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse new is than base, in the metric's own unit
// (negative when it is better).
func (d e2eDef) worseBy(base, new float64) float64 {
	if d.higherBetter {
		return base - new
	}
	return new - base
}

// regressed applies the bound and the floor to two medians.
func (d e2eDef) regressed(base, new float64) bool {
	w := d.worseBy(base, new)
	if d.bound == 0 && d.floor == 0 {
		return w > 0
	}
	return w > d.bound*math.Abs(base) && w > d.floor
}

// judge compares a metric across two records. When the spread between
// either side's own sets exceeds the bound the medians cannot resolve a
// change of that size: the verdict is unresolved, unless every set of one
// side reads better (ok) or worse (regressed, if the medians agree) than
// every set of the other.
func (d e2eDef) judge(base, new float64, baseSets, newSets []float64) string {
	plain := verdictOK
	if d.regressed(base, new) {
		plain = verdictRegressed
	}
	if d.bound == 0 || max(spread(baseSets), spread(newSets)) <= d.bound {
		return plain
	}
	allBetter, allWorse := true, true
	for _, b := range baseSets {
		for _, n := range newSets {
			if d.worseBy(b, n) > 0 {
				allBetter = false
			} else {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictOK
	case allWorse && plain == verdictRegressed:
		return verdictRegressed
	}
	return verdictUnresolved
}

// compareRecords prints one row per workload × end-to-end metric and the
// exactness checks (digests, golden verdicts, deterministic counts), and
// returns how many rows regressed or failed a check.
func compareRecords(w io.Writer, base, new record) int {
	bad := 0
	fmt.Fprintf(w, "base: %s  seed %d  %d s  %d set(s)\n", base.Env.CPUs, base.Seed, base.Seconds, base.NumSets)
	fmt.Fprintf(w, "new:  %s  seed %d  %d s  %d set(s)\n\n", new.Env.CPUs, new.Seed, new.Seconds, new.NumSets)
	sameInputs := base.Seed == new.Seed && base.Seconds == new.Seconds && base.Smoke == new.Smoke
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "delta", "verdict")
	newByName := map[string]workloadRecord{}
	for _, wr := range new.Workloads {
		newByName[wr.Name] = wr
	}
	for _, b := range base.Workloads {
		n, ok := newByName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-12s missing from the new record\n", b.Name)
			bad++
			continue
		}
		for _, d := range e2eDefs {
			bm, bok := b.Metrics[d.name]
			nm, nok := n.Metrics[d.name]
			if !bok || !nok {
				continue
			}
			verdict := d.judge(bm.Value, nm.Value, b.Sets[d.name], n.Sets[d.name])
			if verdict == verdictRegressed {
				bad++
			}
			delta := "-"
			if bm.Value != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(nm.Value-bm.Value)/bm.Value)
			}
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %8s  %s\n", b.Name, d.name, bm.Value, nm.Value, delta, verdict)
		}
		switch {
		case n.Golden == goldenMismatch || b.Golden == goldenMismatch:
			fmt.Fprintf(w, "%-12s %-16s golden mismatch\n", b.Name, "digest")
			bad++
		case sameInputs && b.Digest != n.Digest:
			fmt.Fprintf(w, "%-12s %-16s %s != %s\n", b.Name, "digest", b.Digest[:12], n.Digest[:12])
			bad++
		case sameInputs && b.ShardFallbacks != n.ShardFallbacks:
			fmt.Fprintf(w, "%-12s %-16s %d != %d\n", b.Name, "shard_fallbacks", b.ShardFallbacks, n.ShardFallbacks)
			bad++
		case sameInputs:
			fmt.Fprintf(w, "%-12s %-16s identical\n", b.Name, "digest")
		default:
			fmt.Fprintf(w, "%-12s %-16s not comparable (different seed or size)\n", b.Name, "digest")
		}
	}
	if sameInputs {
		names := make([]string, 0, len(base.Layers))
		for name := range base.Layers {
			if isCount(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		fmt.Fprintln(w)
		for _, name := range names {
			bv := base.Layers[name].Value
			nm, ok := new.Layers[name]
			switch {
			case !ok:
				fmt.Fprintf(w, "count %-34s missing from the new record\n", name)
				bad++
			case nm.Value != bv:
				fmt.Fprintf(w, "count %-34s %v != %v\n", name, bv, nm.Value)
				bad++
			default:
				fmt.Fprintf(w, "count %-34s identical (%v)\n", name, bv)
			}
		}
	}
	return bad
}
