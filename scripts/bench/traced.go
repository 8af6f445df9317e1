package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"innercircle/internal/artifact"
	"innercircle/internal/experiment"
	"innercircle/internal/stats"
	"innercircle/internal/trace"
)

// traceResult is what the traced child prints: every per-layer metric, and
// the per-layer budget of a served job.
type traceResult struct {
	Seed       int64             `json:"seed"`
	Metrics    map[string]metric `json:"metrics"`
	Budget     []jobBudget       `json:"service_budget"`
	Spans      int               `json:"spans"`
	TracePath  string            `json:"trace_path"`
	GOMAXPROCS int               `json:"gomaxprocs"`
}

// jobBudget accounts for one served job: the time of each pipeline step,
// measured by replaying serve.runJob's steps through public calls, plus
// the residual the replay cannot see (HTTP, the queue hop, the events
// follow loop, job-record and table-file writes). Steps and residual sum
// to the served job's measured time.
type jobBudget struct {
	Job        string             `json:"job"`
	Phase      string             `json:"phase"` // cold | warm
	ServedMs   float64            `json:"served_ms"`
	ReplayMs   float64            `json:"replay_ms"`
	ResidualMs float64            `json:"residual_ms"`
	StepSelfMs map[string]float64 `json:"step_self_ms"`
}

// wireTypes are the message types whose per-replica frame counts the trace
// layer reports, as the tracer names them.
var wireTypes = []string{
	"aodv.Data", "aodv.RREQ", "aodv.RREP", "aodv.RERR",
	"sts.BeaconMsg", "vote.ProposeMsg", "vote.AckMsg", "vote.AgreedMsg",
}

// warmRounds is how many times the traced pass resubmits its jobs.
const warmRounds = 10

// replayJob performs serve.runJob's steps itself, one span each under a
// job span, against store. It returns the job's duration, the result
// bytes in point order, and how many replicas it had to compute.
func replayJob(log *spanLog, store *artifact.Store, g *experiment.GridRequest) (time.Duration, [][]byte, int, error) {
	endJob := log.begin("replay.job")
	results, computed, err := replaySteps(log, store, g)
	return endJob(), results, computed, err
}

func replaySteps(log *spanLog, store *artifact.Store, g *experiment.GridRequest) ([][]byte, int, error) {
	step := func(name string, fn func() error) error {
		end := log.begin(name)
		defer end()
		return fn()
	}

	var points []experiment.ReplicaPoint
	if err := step("experiment.points", func() (err error) {
		points, err = g.Points()
		return err
	}); err != nil {
		return nil, 0, err
	}
	specSHA := make([]string, len(points))
	if err := step("experiment.canonical", func() error {
		for i, pt := range points {
			b, err := pt.Spec.Canonical()
			if err != nil {
				return err
			}
			specSHA[i] = artifact.Sum(b)
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	resultSHA := make([]string, len(points))
	var misses []int
	if err := step("artifact.get_manifest", func() error {
		for i := range points {
			m, ok, err := store.GetManifest(specSHA[i])
			if err != nil {
				return err
			}
			if ok && store.HasResult(m.ResultSHA256) {
				resultSHA[i] = m.ResultSHA256
			} else {
				misses = append(misses, i)
			}
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	if len(misses) > 0 {
		jobs := make([]experiment.Job, len(misses))
		for k, i := range misses {
			pt := points[i]
			jobs[k] = experiment.Job{Index: k, Label: pt.Label, Run: func() (any, error) {
				t0 := time.Now()
				var res []byte
				var shards int
				if err := step("experiment.run", func() (err error) {
					res, shards, err = pt.Spec.Run()
					return err
				}); err != nil {
					return nil, err
				}
				var sha string
				if err := step("artifact.put_result", func() (err error) {
					sha, err = store.PutResult(res)
					return err
				}); err != nil {
					return nil, err
				}
				return sha, step("artifact.put_manifest", func() error {
					return store.PutManifest(artifact.Manifest{
						SpecSHA256: specSHA[i], ResultSHA256: sha, Seed: pt.Spec.Seed(),
						GitRev: artifact.GitRev(), Knobs: artifact.KnobSnapshot(), Shards: shards,
						WallMs:    float64(time.Since(t0)) / float64(time.Millisecond),
						CreatedAt: artifact.Now(),
					})
				})
			}}
		}
		// One worker, as the traced server's pool has (IC_WORKERS=1): the
		// replicas run back to back, so step times add up to the job's.
		if err := step("experiment.pool", func() error {
			out, err := experiment.RunJobs(jobs, 1, nil)
			if err != nil {
				return err
			}
			for k, i := range misses {
				resultSHA[i] = out[k].(string)
			}
			return nil
		}); err != nil {
			return nil, 0, err
		}
	}
	results := make([][]byte, len(points))
	if err := step("artifact.get_result", func() error {
		for i := range points {
			b, err := store.GetResult(resultSHA[i])
			if err != nil {
				return err
			}
			results[i] = b
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	var tables []*stats.Table
	if err := step("experiment.tables", func() (err error) {
		tables, err = g.Tables(results)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var rendered, csv string
	_ = step("experiment.render", func() error { rendered = g.Render(tables); return nil })
	_ = step("experiment.csv", func() error { csv = g.CSV(tables); return nil })
	if rendered == "" || csv == "" {
		return nil, 0, fmt.Errorf("replay of %s rendered nothing", g.Name)
	}
	return results, len(misses), nil
}

// stepSelfMs sums self time by span name over the subtree rooted at the
// most recent span called root.
func stepSelfMs(spans []span, root string) map[string]float64 {
	rootID := 0
	for _, s := range spans {
		if s.Name == root {
			rootID = s.ID
		}
	}
	under := map[int]bool{rootID: true}
	out := map[string]float64{}
	for _, s := range spans { // parents precede children
		if s.ID == rootID || under[s.Parent] {
			under[s.ID] = true
			out[s.Name] += float64(s.Self) / 1e6
		}
	}
	return out
}

// spanMs returns the durations, in ms, of the spans with a name and (when
// non-empty) a workload label.
func spanMs(spans []span, name, workload string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (workload == "" || s.Workload == workload) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// servicePass runs the three job shapes through an in-process server with
// client-side spans — cold, then warmRounds warm rounds — and replays the
// same jobs step by step against a second store. It returns the first
// job (blackhole-kind results) and its result bytes for the experiment/artifact probes.
func servicePass(p *prober, tmp string, res *traceResult) (*experiment.GridRequest, [][]byte, error) {
	log := p.log
	jobs, err := gridJobs(p.seed, 3)
	if err != nil {
		return nil, nil, err
	}
	rounds := warmRounds
	if p.smoke {
		// One shape (the campaign slice, the cheapest) and two rounds.
		jobs, rounds = jobs[2:], 2
	}
	srv, err := startGridServer(filepath.Join(tmp, "served"))
	if err != nil {
		return nil, nil, err
	}
	defer srv.stop()
	store, err := artifact.Open(filepath.Join(tmp, "replay"))
	if err != nil {
		return nil, nil, err
	}
	// Warm-up outside any span: the process-wide sensor key cache.
	if err := warmUpJob(srv.client, p.seed); err != nil {
		return nil, nil, err
	}

	served := func(g *experiment.GridRequest, want int) (float64, jobOutcome, error) {
		end := log.begin("serve.job")
		out, err := runGridJob(srv.client, log, g, want)
		return ms(end()), out, err
	}
	var fig7Results [][]byte
	coldServed := make([]float64, len(jobs))
	coldReplay := make([]float64, len(jobs))
	for j, g := range jobs {
		points, err := g.Points()
		if err != nil {
			return nil, nil, err
		}
		log.label("grid_cold", j)
		t, out, err := served(g, len(points))
		if err != nil {
			return nil, nil, err
		}
		coldServed[j] = t
		end := log.begin("serve.artifact_get")
		_, err = srv.client.Artifact(context.Background(), out.resultSHA)
		end()
		if err != nil {
			return nil, nil, err
		}
		d, results, computed, err := replayJob(log, store, g)
		if err != nil {
			return nil, nil, err
		}
		if computed != len(points) {
			return nil, nil, fmt.Errorf("cold replay of %s computed %d of %d", g.Name, computed, len(points))
		}
		coldReplay[j] = ms(d)
		res.Budget = append(res.Budget, jobBudget{Job: g.Name, Phase: "cold", ServedMs: t, ReplayMs: ms(d),
			ResidualMs: t - ms(d), StepSelfMs: stepSelfMs(log.finished(), "replay.job")})
		if j == 0 {
			fig7Results = results
		}
	}

	warmServed := make([][]float64, len(jobs))
	for r := 0; r < rounds; r++ {
		for j, g := range jobs {
			log.label("grid_warm", r*len(jobs)+j)
			t, _, err := served(g, 0)
			if err != nil {
				return nil, nil, err
			}
			warmServed[j] = append(warmServed[j], t)
		}
	}
	var residCold, residWarm float64
	for j, g := range jobs {
		log.label("grid_warm", j)
		d, _, computed, err := replayJob(log, store, g)
		if err != nil {
			return nil, nil, err
		}
		if computed != 0 {
			return nil, nil, fmt.Errorf("warm replay of %s computed %d replicas", g.Name, computed)
		}
		t := median(warmServed[j])
		res.Budget = append(res.Budget, jobBudget{Job: g.Name, Phase: "warm", ServedMs: t, ReplayMs: ms(d),
			ResidualMs: t - ms(d), StepSelfMs: stepSelfMs(log.finished(), "replay.job")})
		residCold += (coldServed[j] - coldReplay[j]) / float64(len(jobs))
		residWarm += (t - ms(d)) / float64(len(jobs))
	}
	log.label("", 0)

	spans := log.finished()
	p.set("serve.submit_ms", median(spanMs(spans, "serve.submit", "")), "ms")
	p.set("serve.wait_cold_ms", median(spanMs(spans, "serve.wait", "grid_cold")), "ms")
	p.set("serve.wait_warm_ms", median(spanMs(spans, "serve.wait", "grid_warm")), "ms")
	p.set("serve.tables_ms", median(spanMs(spans, "serve.tables", "")), "ms")
	p.set("serve.csv_ms", median(spanMs(spans, "serve.csv", "")), "ms")
	p.set("serve.manifest_ms", median(spanMs(spans, "serve.manifest", "")), "ms")
	p.set("serve.artifact_get_ms", median(spanMs(spans, "serve.artifact_get", "")), "ms")
	p.set("serve.residual_cold_ms", residCold, "ms")
	p.set("serve.residual_warm_ms", residWarm, "ms")
	return jobs[0], fig7Results, nil
}

// probeExperiment times the grid functions on the fig7-slice grid and its
// real results, and the pool's per-job overhead with no-op jobs.
func (p *prober) probeExperiment(g *experiment.GridRequest, results [][]byte) error {
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	var points []experiment.ReplicaPoint
	p.set("experiment.points_us", us(perCall(p.n(2000), func() {
		var e error
		points, e = g.Points()
		keep(e)
	})), "us")
	if err != nil {
		return err
	}
	i := 0
	p.set("experiment.canonical_us", us(perCall(p.n(20000), func() {
		_, e := points[i%len(points)].Spec.Canonical()
		keep(e)
		i++
	})), "us")

	noop := make([]experiment.Job, 1000)
	for i := range noop {
		noop[i] = experiment.Job{Index: i, Run: func() (any, error) { return nil, nil }}
	}
	p.set("experiment.pool_job_us", us(perCall(p.n(50), func() {
		_, e := experiment.RunJobs(noop, servedCPUs(), nil)
		keep(e)
	}))/float64(len(noop)), "us")

	tables, e := g.Tables(results)
	if e != nil {
		return e
	}
	p.set("experiment.tables_ms", ms(perCall(p.n(2000), func() {
		_, e := g.Tables(results)
		keep(e)
	})), "ms")
	p.set("experiment.render_us", us(perCall(p.n(5000), func() { _ = g.Render(tables) })), "us")
	p.set("experiment.csv_us", us(perCall(p.n(5000), func() { _ = g.CSV(tables) })), "us")
	return err
}

// probeArtifact times the store on 200 distinct blobs shaped like a real
// result (a decoded fig7-slice result with one counter varied).
func (p *prober) probeArtifact(dir string, real []byte) error {
	store, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	base, err := experiment.DecodeReplicaResult(real)
	if err != nil {
		return err
	}
	if base.Blackhole == nil {
		return fmt.Errorf("artifact probe wants a blackhole result, got %q", base.Kind)
	}
	n := max(10, p.n(200))
	blobs := make([][]byte, n)
	for i := range blobs {
		r := *base.Blackhole
		r.Sent += i
		if blobs[i], err = json.Marshal(experiment.ReplicaResult{Kind: base.Kind, Blackhole: &r}); err != nil {
			return err
		}
	}
	timed := func(name string, fn func(i int) error) error {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		p.set(name, us(time.Since(start))/float64(n), "us")
		return nil
	}
	shas := make([]string, n)
	specs := make([]string, n)
	if err := timed("artifact.put_result_us", func(i int) (err error) {
		shas[i], err = store.PutResult(blobs[i])
		return err
	}); err != nil {
		return err
	}
	if err := timed("artifact.put_manifest_us", func(i int) error {
		specs[i] = artifact.Sum([]byte(fmt.Sprintf("probe-spec-%d", i)))
		return store.PutManifest(artifact.Manifest{SpecSHA256: specs[i], ResultSHA256: shas[i], Seed: int64(i),
			GitRev: artifact.GitRev(), Shards: 1, CreatedAt: artifact.Now()})
	}); err != nil {
		return err
	}
	if err := timed("artifact.get_manifest_us", func(i int) error {
		m, ok, err := store.GetManifest(specs[i])
		if err == nil && (!ok || m.ResultSHA256 != shas[i]) {
			err = fmt.Errorf("manifest %d did not round-trip", i)
		}
		return err
	}); err != nil {
		return err
	}
	if err := timed("artifact.get_result_us", func(i int) error {
		b, err := store.GetResult(shas[i])
		if err == nil && string(b) != string(blobs[i]) {
			err = fmt.Errorf("result %d did not round-trip", i)
		}
		return err
	}); err != nil {
		return err
	}
	start := time.Now()
	if err := store.Verify(); err != nil {
		return err
	}
	p.set("artifact.verify_ms_per_100", ms(time.Since(start))*100/float64(n), "ms")
	return nil
}

// tracePair runs one Fig. 7 replica per row twice — plain, then with the
// replica's one public hook, BlackholeConfig.Tracer, attached — and
// reports the hook's overhead and the frames each layer put on the air.
// The counts are work done inside a replica: a speed-up must leave them
// identical.
func (p *prober) tracePair() error {
	var plain, traced time.Duration
	counts := map[string]uint64{}
	var bytesTotal uint64
	for row, r := range []struct {
		ic bool
		l  int
	}{{false, 1}, {true, 1}, {true, 2}} {
		cfg := experiment.PaperBlackholeConfig()
		cfg.Seed = p.seed
		cfg.Malicious = 4
		cfg.IC, cfg.L = r.ic, r.l
		if p.smoke {
			cfg.SimTime = 30
		}
		p.log.label("fig7_adhoc", row)
		end := p.log.begin("fig7.plain")
		want, err := experiment.RunBlackhole(cfg)
		plain += end()
		if err != nil {
			return err
		}
		cfg.Tracer = trace.New(0)
		end = p.log.begin("fig7.traced")
		got, err := experiment.RunBlackhole(cfg)
		traced += end()
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("row %d: attaching the tracer changed the result", row)
		}
		for name, n := range cfg.Tracer.Counts() {
			counts[name] += n
		}
		for _, n := range cfg.Tracer.Bytes() {
			bytesTotal += n
		}
	}
	p.log.label("", 0)
	p.set("trace.overhead_pct", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds(), "%")
	for _, name := range wireTypes {
		p.set("wire."+name+".frames", float64(counts[name]), "count")
	}
	p.set("wire.bytes_total", float64(bytesTotal), "B")
	return nil
}

// runTraced is the traced child: every per-layer probe, the service pass
// with its pipeline replay and the plain/traced replica pair, all under
// spans written to <outDir>/trace.json.
func runTraced(seed int64, z size, tmp, outDir string) (*traceResult, error) {
	p := &prober{log: newSpanLog(), seed: seed, smoke: z.smoke, metrics: map[string]metric{}}
	res := &traceResult{Seed: seed, Metrics: p.metrics, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if err := p.probeLayers(); err != nil {
		return nil, err
	}
	// The traced server and the replay both run their replicas on one pool
	// worker, so a job's steps happen back to back and their times add up
	// to the job's; the untraced grid workloads keep the full pool.
	if err := os.Setenv("IC_WORKERS", "1"); err != nil {
		return nil, err
	}
	// The child runs on one P, as the in-process workloads do, except here:
	// client, server and pool must overlap as they do in the grid workloads.
	procs := runtime.GOMAXPROCS(servedCPUs())
	var fig7Job *experiment.GridRequest
	var fig7Results [][]byte
	err := p.layer("serve", func() (err error) {
		fig7Job, fig7Results, err = servicePass(p, tmp, res)
		return err
	})
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	if err := p.layer("experiment", func() error { return p.probeExperiment(fig7Job, fig7Results) }); err != nil {
		return nil, err
	}
	if err := p.layer("artifact", func() error {
		return p.probeArtifact(filepath.Join(tmp, "artifact-probe"), fig7Results[0])
	}); err != nil {
		return nil, err
	}
	if err := p.layer("trace", p.tracePair); err != nil {
		return nil, err
	}
	if err := checkLayers(p.metrics); err != nil {
		return nil, err
	}
	spans := p.log.finished()
	res.Spans = len(spans)
	res.TracePath = filepath.Join(outDir, "trace.json")
	if err := writeTrace(res.TracePath, seed, spans); err != nil {
		return nil, err
	}
	return res, nil
}
