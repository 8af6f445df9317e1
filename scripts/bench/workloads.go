package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"innercircle/internal/artifact"
	"innercircle/internal/experiment"
	"innercircle/internal/faults"
	"innercircle/internal/sensor"
	"innercircle/internal/serve"
)

// A workload is one closed loop with one caller: the next op starts when
// the previous returns. Op counts are fixed by the run length, never by a
// timer, so allocation totals, result digests and wire counts repeat
// exactly for a given seed.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// served workloads run a client, an HTTP server and the replica pool
	// concurrently and get servedCPUs; the others are one single-threaded
	// simulation at a time and get one, as a replica in a sweep has.
	served bool
	// ops is the op count at a size; the reference run length is 10 s and
	// 30 s gives the sizes the issue was written against.
	ops func(z size) int
	// plan generates the inputs from the seed and performs the set-up
	// (warm-up op, server start, store population) that setup_s times.
	plan func(c planCtx) (*plan, error)
}

// size is how much work a run does: op counts grow with the run length
// and shrink tenfold for a smoke run.
type size struct {
	seconds int
	smoke   bool
}

// of scales a full-size count for a smoke run.
func (z size) of(n int) int {
	if z.smoke {
		return max(1, n/10)
	}
	return n
}

// planCtx is what a workload's inputs are generated from.
type planCtx struct {
	seed int64
	size size
	ops  int
	// tmp is an empty directory the workload may write to.
	tmp string
}

// opOut is what one op hands back for checking.
type opOut struct {
	// data is folded, in op order, into the workload's result digest.
	data []byte
	// shards is the shard count the kernel executed with (field_scale).
	shards int
	// replicas is how many replicas the op computed (grid workloads).
	replicas int
	// refollows is how often the op had to follow its job's event stream
	// again (see waitJob).
	refollows int
}

type plan struct {
	ops []func() (opOut, error)
	// wantShards, when positive, is the shard count every op asked for; an
	// op that executed fewer fell back to one kernel.
	wantShards int
	// verify runs after the timed window over every op's data.
	verify func(outs [][]byte) error
	close  func()
}

func roundPos(x float64) int {
	if n := int(math.Round(x)); n > 1 {
		return n
	}
	return 1
}

// warmupSeedOffset keeps the untimed warm-up op's inputs apart from every
// timed op's, so set-up never computes a timed op's answer ahead of time.
const warmupSeedOffset = 7919

var workloads = []workload{
	{
		name: "fig7_adhoc",
		why:  "Fig. 7 mobile ad hoc replicas in process: radio re-bin, AODV discovery/repair, deterministic voting; sharding, diffusion, fusion and NSL idle",
		ops:  func(z size) int { return z.of(9 * roundPos(float64(z.seconds)/5)) },
		plan: planFig7,
	},
	{
		name: "fig8_sensor",
		why:  "Fig. 8 static sensor pairs in process: statistical voting, NSL sign/verify and sigcache, FT-cluster fusion, diffusion; AODV and mobility idle",
		ops:  func(z size) int { return z.of(20 * roundPos(float64(z.seconds)/6)) },
		plan: planFig8,
	},
	{
		name: "field_scale",
		why:  "4000-node sensor field on 4 shards, IC off: kernel queue, radio candidate sets, MAC contention and the shard executor; crypto, voting and routing idle",
		// Never fewer than ten: an op's cost differs threefold by seed, so
		// five of them moved ops_per_s by a fifth from one seed to the next.
		ops:  func(z size) int { return z.of(max(10, int(math.Ceil(float64(z.seconds)/2)))) },
		plan: planField,
	},
	{
		name:   "grid_cold",
		why:    "paper-grid jobs through an in-process icserved, every replica computed: pool fan-out, store writes (fsync), fold/render, HTTP over the simulator",
		ops:    func(z size) int { return z.of(3 * roundPos(0.8*float64(z.seconds)/3)) },
		plan:   planGridCold,
		served: true,
	},
	{
		name: "grid_warm",
		why:  "the same jobs resubmitted to a populated store: store reads, fold/render, job-record fsyncs and the events follow loop; simulator idle",
		ops: func(z size) int {
			d := warmDistinct(z)
			total := z.of(int(math.Max(110, 5*float64(z.seconds))))
			return d * ((total + d - 1) / d)
		},
		plan:   planGridWarm,
		served: true,
	},
}

// warmDistinct is how many distinct jobs grid_warm's set-up stores and its
// timed rounds resubmit.
func warmDistinct(z size) int {
	if z.smoke {
		return 1
	}
	return max(3, int(math.Round(float64(z.seconds)/3)))
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// replicaOps turns grid points into ops that run each replica in process.
func replicaOps(points []experiment.ReplicaPoint, n int) []func() (opOut, error) {
	ops := make([]func() (opOut, error), 0, n)
	for _, p := range points[:n] {
		spec := p.Spec
		ops = append(ops, func() (opOut, error) {
			b, shards, err := spec.Run()
			return opOut{data: b, shards: shards}, err
		})
	}
	return ops
}

// foldCheck verifies in-process results the way the service would use
// them: every blob decodes as the grid's result kind and the whole set
// folds into non-empty tables. A truncated grid (smoke sizes) only decodes.
func foldCheck(g *experiment.GridRequest, points int) func([][]byte) error {
	return func(outs [][]byte) error {
		if len(outs) != points {
			for _, b := range outs {
				if _, err := experiment.DecodeReplicaResult(b); err != nil {
					return err
				}
			}
			return nil
		}
		tables, err := g.Tables(outs)
		if err != nil {
			return err
		}
		if g.Render(tables) == "" {
			return errors.New("grid rendered no tables")
		}
		return nil
	}
}

func fig7Grid(seed int64, runs int) *experiment.GridRequest {
	bh := experiment.PaperBlackholeConfig()
	bh.Seed = seed
	return &experiment.GridRequest{Name: "fig7-adhoc", Kind: experiment.GridBlackhole,
		Blackhole: &bh, Malicious: []int{0, 4, 10}, Levels: []int{1, 2}, Runs: runs}
}

func planFig7(c planCtx) (*plan, error) {
	g := fig7Grid(c.seed, (c.ops+8)/9)
	points, err := g.Points()
	if err != nil {
		return nil, err
	}
	warm := experiment.PaperBlackholeConfig()
	warm.Seed = c.seed + warmupSeedOffset
	warm.SimTime = 60
	warm.IC = true
	if _, _, err := (experiment.ReplicaSpec{Kind: experiment.ReplicaBlackhole, Blackhole: &warm}).Run(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &plan{ops: replicaOps(points, c.ops), verify: foldCheck(g, len(points))}, nil
}

func fig8Grid(seed int64, runs int) *experiment.GridRequest {
	sn := experiment.PaperSensorConfig()
	sn.Seed = seed
	return &experiment.GridRequest{Name: "fig8-sensor", Kind: experiment.GridSensor,
		Sensor: &sn, Levels: []int{3, 5, 7}, Faults: sensor.AllFaultKinds(), Runs: runs}
}

func planFig8(c planCtx) (*plan, error) {
	g := fig8Grid(c.seed, (c.ops+19)/20)
	points, err := g.Points()
	if err != nil {
		return nil, err
	}
	// The warm-up pair is where the process generates the 100 cached NSL
	// key pairs every IC sensor replica shares.
	warm := experiment.PaperSensorConfig()
	warm.Seed = c.seed + warmupSeedOffset
	warm.IC = true
	if _, _, err := (experiment.ReplicaSpec{Kind: experiment.ReplicaSensorPair, Sensor: &warm}).Run(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &plan{ops: replicaOps(points, c.ops), verify: foldCheck(g, len(points))}, nil
}

// fieldNodes and fieldShards size field_scale's replica.
const (
	fieldNodes  = 4000
	fieldShards = 4
)

func fieldSpec(z size, seed int64) experiment.ReplicaSpec {
	cfg := experiment.ScaledSensorConfig(fieldNodes)
	cfg.Shards = fieldShards
	cfg.Seed = seed
	if z.smoke {
		cfg.SimTime = 8
	}
	return experiment.ReplicaSpec{Kind: experiment.ReplicaSensor, Sensor: &cfg}
}

func planField(c planCtx) (*plan, error) {
	warm := fieldSpec(c.size, 100*c.seed+warmupSeedOffset)
	warm.Sensor.SimTime = 5
	if _, _, err := warm.Run(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	points := make([]experiment.ReplicaPoint, c.ops)
	for i := range points {
		points[i].Spec = fieldSpec(c.size, 100*c.seed+int64(i))
	}
	return &plan{ops: replicaOps(points, c.ops), wantShards: fieldShards, verify: func(outs [][]byte) error {
		for _, b := range outs {
			r, err := experiment.DecodeReplicaResult(b)
			if err != nil {
				return err
			}
			if r.Sensor == nil {
				return fmt.Errorf("result kind %q, want sensor", r.Kind)
			}
		}
		return nil
	}}, nil
}

// gridJob returns the j-th job of the served workloads: three shapes in
// rotation, each a slice of a paper grid, every job on its own seed so no
// two share a replica.
func gridJob(seed int64, j int) (*experiment.GridRequest, error) {
	jobSeed := 1000*seed + int64(j)
	switch j % 3 {
	case 0:
		bh := experiment.PaperBlackholeConfig()
		bh.Seed = jobSeed
		bh.SimTime = 60
		return &experiment.GridRequest{Name: fmt.Sprintf("fig7-slice-%d", j), Kind: experiment.GridBlackhole,
			Blackhole: &bh, Malicious: []int{0, 6, 10}, Levels: []int{1, 2}, Runs: 1}, nil
	case 1:
		sn := experiment.PaperSensorConfig()
		sn.Seed = jobSeed
		return &experiment.GridRequest{Name: fmt.Sprintf("fig8-slice-%d", j), Kind: experiment.GridSensor,
			Sensor: &sn, Levels: []int{3, 5}, Runs: 1,
			Faults: []sensor.FaultKind{sensor.FaultNone, sensor.FaultInterference, sensor.FaultCalibration}}, nil
	default:
		bh := experiment.PaperBlackholeConfig()
		bh.Seed = jobSeed
		bh.SimTime = 60
		var campaigns []faults.Campaign
		for _, preset := range []string{"clean", "blackhole:3", "drop:3:0.5"} {
			camp, err := faults.ParsePreset(preset)
			if err != nil {
				return nil, err
			}
			campaigns = append(campaigns, camp)
		}
		return &experiment.GridRequest{Name: fmt.Sprintf("campaign-slice-%d", j), Kind: experiment.GridCampaign,
			Blackhole: &bh, Campaigns: campaigns, Levels: []int{1}, Runs: 1}, nil
	}
}

// gridServer is an in-process icserved: serve.New on a directory, the job
// queue running, and the HTTP handler on an ephemeral loopback port.
type gridServer struct {
	client *serve.Client
	stop   func()
}

func startGridServer(dir string) (*gridServer, error) {
	srv, err := serve.New(serve.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_ = srv.Run(ctx) // returns ctx's error on the cancel below
	}()
	httpSrv := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		_ = httpSrv.Serve(ln) // ErrServerClosed after Shutdown
	}()
	// A private transport, so stopping the server also drops the client's
	// idle connections instead of leaving them on http.DefaultTransport.
	transport := &http.Transport{}
	return &gridServer{
		client: &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: transport}},
		stop: func() {
			cancel()
			<-runDone
			shutCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
			defer done()
			_ = httpSrv.Shutdown(shutCtx)
			<-httpDone
			transport.CloseIdleConnections()
		},
	}, nil
}

// jobOutcome is what the client saw of one served job.
type jobOutcome struct {
	info   serve.JobInfo
	tables string
	// resultSHA is the digest of one of the job's replica results.
	resultSHA string
	// refollows is how often the event stream ended early (see waitJob).
	refollows int
}

// maxRefollows bounds how often one job's event stream is followed again.
const maxRefollows = 3

// waitJob follows a job's event stream to its "end" line, as Client.Wait
// does, and follows it again when the service closed the stream early.
// serve.handleEvents ends a stream without the terminal line when a poll
// finds no new line while the job is turning done: setState holds the
// server's lock through the job record's fsync, the handler's state check
// waits on that lock, and the "end" line is only written afterwards. It
// takes a job whose closing writes outlast the 100 ms poll, so it shows on
// a host whose fsyncs stall (README, "stream_refollows"). The job itself is
// unharmed and a second follow reads the whole stream, so the op goes on
// to every check; the count goes into the record.
func waitJob(ctx context.Context, c *serve.Client, id string, onEvent func(serve.Event)) (serve.JobInfo, int, error) {
	for refollows := 0; ; refollows++ {
		job, err := c.Wait(ctx, id, onEvent)
		if err == nil || refollows == maxRefollows || !strings.Contains(err.Error(), "ended without a terminal line") {
			return job, refollows, err
		}
	}
}

// runGridJob is the served workloads' op: submit, follow the event stream
// to its "end" line, then fetch the tables, the CSV and the manifest. It
// fails unless the job is done, computed exactly wantComputed replicas and
// served tables matching its own digest. Each client call is a span.
func runGridJob(c *serve.Client, log *spanLog, g *experiment.GridRequest, wantComputed int) (jobOutcome, error) {
	ctx := context.Background()
	var out jobOutcome
	end := log.begin("serve.submit")
	job, err := c.Submit(ctx, g)
	end()
	if err != nil {
		return out, err
	}
	end = log.begin("serve.wait")
	job, out.refollows, err = waitJob(ctx, c, job.ID, func(e serve.Event) {
		if e.Type == "point" {
			out.resultSHA = e.ResultSHA
		}
	})
	end()
	if err != nil {
		return out, err
	}
	out.info = job
	if job.State != serve.JobDone {
		return out, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if job.Computed != wantComputed {
		return out, fmt.Errorf("job %s computed %d replicas, want %d", job.ID, job.Computed, wantComputed)
	}
	end = log.begin("serve.tables")
	out.tables, err = c.Tables(ctx, job.ID)
	end()
	if err != nil {
		return out, err
	}
	if artifact.Sum([]byte(out.tables)) != job.TablesSHA256 {
		return out, fmt.Errorf("job %s: served tables do not match tables_sha256", job.ID)
	}
	end = log.begin("serve.csv")
	csv, err := c.TablesCSV(ctx, job.ID)
	end()
	if err != nil {
		return out, err
	}
	if csv == "" {
		return out, fmt.Errorf("job %s: empty CSV", job.ID)
	}
	end = log.begin("serve.manifest")
	_, err = c.Manifest(ctx, job.ID)
	end()
	return out, err
}

// gridOps builds one op per job in jobs order; cold ops must compute every
// replica, warm ops none.
func gridOps(srv *gridServer, jobs []*experiment.GridRequest, cold bool) ([]func() (opOut, error), error) {
	ops := make([]func() (opOut, error), 0, len(jobs))
	for _, g := range jobs {
		points, err := g.Points()
		if err != nil {
			return nil, err
		}
		want := 0
		if cold {
			want = len(points)
		}
		ops = append(ops, func() (opOut, error) {
			out, err := runGridJob(srv.client, nil, g, want)
			return opOut{data: []byte(out.tables), replicas: out.info.Computed, refollows: out.refollows}, err
		})
	}
	return ops, nil
}

func gridJobs(seed int64, n int) ([]*experiment.GridRequest, error) {
	jobs := make([]*experiment.GridRequest, n)
	for j := range jobs {
		g, err := gridJob(seed, j)
		if err != nil {
			return nil, err
		}
		jobs[j] = g
	}
	return jobs, nil
}

// warmUpJob is the served workloads' untimed warm-up: a two-pair sensor job
// on its own seed, which makes the process generate the cached NSL keys and
// opens the client's connection.
func warmUpJob(c *serve.Client, seed int64) error {
	sn := experiment.PaperSensorConfig()
	sn.Seed = seed + warmupSeedOffset
	warm := &experiment.GridRequest{Name: "warm-up", Kind: experiment.GridSensor, Sensor: &sn,
		Levels: []int{3}, Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1}
	if _, err := runGridJob(c, nil, warm, 2); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// servedPlan starts a server in the workload's directory and builds the
// plan against it; the plan's close stops the server.
func servedPlan(c planCtx, build func(srv *gridServer) (*plan, error)) (*plan, error) {
	srv, err := startGridServer(c.tmp)
	if err != nil {
		return nil, err
	}
	p, err := build(srv)
	if err != nil {
		srv.stop()
		return nil, err
	}
	p.close = srv.stop
	return p, nil
}

func planGridCold(c planCtx) (*plan, error) {
	return servedPlan(c, func(srv *gridServer) (*plan, error) {
		if err := warmUpJob(srv.client, c.seed); err != nil {
			return nil, err
		}
		jobs, err := gridJobs(c.seed, c.ops)
		if err != nil {
			return nil, err
		}
		ops, err := gridOps(srv, jobs, true)
		return &plan{ops: ops}, err
	})
}

func planGridWarm(c planCtx) (*plan, error) {
	return servedPlan(c, func(srv *gridServer) (*plan, error) {
		distinct := warmDistinct(c.size)
		jobs, err := gridJobs(c.seed, distinct)
		if err != nil {
			return nil, err
		}
		cold, err := gridOps(srv, jobs, true)
		if err != nil {
			return nil, err
		}
		// Populate the store: the first pass computes everything, and its
		// tables are what every warm op must reproduce byte for byte.
		first := make([][]byte, len(cold))
		for i, op := range cold {
			out, err := op()
			if err != nil {
				return nil, fmt.Errorf("populating store, job %d: %w", i, err)
			}
			first[i] = out.data
		}
		warm, err := gridOps(srv, jobs, false)
		if err != nil {
			return nil, err
		}
		ops := make([]func() (opOut, error), c.ops)
		for i := range ops {
			ops[i] = warm[i%distinct]
		}
		return &plan{ops: ops, verify: func(outs [][]byte) error {
			for i, b := range outs {
				if string(b) != string(first[i%distinct]) {
					return fmt.Errorf("op %d: warm tables differ from the computed pass", i)
				}
			}
			return nil
		}}, nil
	})
}
