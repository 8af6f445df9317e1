package experiment

import (
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"sync"

	"innercircle/internal/diffusion"
	"innercircle/internal/energy"
	"innercircle/internal/fusion"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/traffic"
	"innercircle/internal/vote"

	"innercircle/internal/crypto/nsl"
)

// SensorConfig parameterizes one Fig. 8 run. Node 0 is the base station at
// the region's centre; the remaining Nodes-1 sensors sit on a jittered
// grid.
// The JSON form is the experiment service's wire format (grid.go).
type SensorConfig struct {
	Nodes          int                `json:"nodes"`  // 100 (1 base + 99 sensors)
	Region         float64            `json:"region"` // 200 m square
	Range          float64            `json:"range"`  // 40 m
	SimTime        sim.Time           `json:"sim_time"`
	SensePeriod    sim.Duration       `json:"sense_period"` // 5 s, synchronized epochs
	Lambda         float64            `json:"lambda"`       // 6.635
	Model          sensor.SignalModel `json:"model"`
	TargetStart    sim.Time           `json:"target_start"`        // first target onset (50 s)
	TargetPeriod   sim.Duration       `json:"target_period"`       // 100 s
	TargetDuration sim.Duration       `json:"target_duration"`     // 25 s
	NoTarget       bool               `json:"no_target,omitempty"` // Fig. 8(d): run without any target
	Faulty         int                `json:"faulty"`
	Fault          sensor.FaultKind   `json:"fault"`
	FaultParams    sensor.FaultParams `json:"fault_params"`
	IC             bool               `json:"ic"`
	L              int                `json:"l"`
	Eta            float64            `json:"eta"` // FT-cluster threshold (5)
	// Fusion selects the statistical fusion algorithm (ablation A3 in
	// situ); default FusionCluster.
	Fusion FusionAlg `json:"fusion,omitempty"`
	// UniformPlacement scatters sensors uniformly instead of on the
	// default jittered grid. Uniform deployments have thin patches, which
	// matters for the weak-signal miss-alarm results (§5.2).
	UniformPlacement bool `json:"uniform_placement,omitempty"`
	// Shards partitions the replica across at most that many parallel
	// kernels (see scenario.Spec.Shards, at most scenario.MaxShards) — the
	// one way to ask for shards: `icsweep sensor|churn -shards N` and an
	// icserved client's request both set this field.
	Shards int `json:"shards,omitempty"`
	// ShardStats, when non-nil, receives each sharded replica's utilization
	// report (scenario.Spec.ShardStats; `icsweep sensor|churn -shardstats`).
	// Runtime only, like BlackholeConfig.Tracer — but a sweep may carry it:
	// every replica's report is one Write.
	ShardStats io.Writer `json:"-"`
	// Churn schedules mid-run membership transitions over the inner
	// circle (see scenario.Churn); nil runs with fixed membership, so
	// churn-free configs hash identically to pre-churn artifacts.
	Churn *scenario.Churn `json:"churn,omitempty"`
	Seed  int64           `json:"seed"`
}

// FusionAlg selects the fault-tolerant fusion used by statistical voting.
type FusionAlg int

// Fusion algorithms.
const (
	// FusionCluster is the paper's FT-cluster algorithm (default).
	FusionCluster FusionAlg = iota
	// FusionMean is the Dolev-style fault-tolerant mean baseline.
	FusionMean
	// FusionNaive averages everything (no fault tolerance).
	FusionNaive
)

// PaperSensorConfig returns the Fig. 8 parameter box.
func PaperSensorConfig() SensorConfig {
	return SensorConfig{
		Nodes:          100,
		Region:         200,
		Range:          40,
		SimTime:        200,
		SensePeriod:    5,
		Lambda:         sensor.NeymanPearsonLambda,
		Model:          sensor.Paper(),
		TargetStart:    50,
		TargetPeriod:   100,
		TargetDuration: 25,
		Faulty:         10,
		Fault:          sensor.FaultNone,
		FaultParams:    sensor.PaperFaults(),
		L:              3,
		Eta:            5,
	}
}

// ScaledSensorConfig returns a density-preserving enlargement of the
// Fig. 8 deployment for scaling studies: the region grows with √nodes so
// the per-cell population (and hence MAC contention) matches the paper's
// 100-node field at any size. The detection threshold is raised well past
// the Neyman-Pearson working point to keep the false-alarm flood rate
// sub-critical at large populations, the run is short, and IC is off —
// per-node RSA key material for 10⁵ nodes is not a cost the scaling
// question needs.
func ScaledSensorConfig(nodes int) SensorConfig {
	cfg := PaperSensorConfig()
	cfg.Nodes = nodes
	cfg.Region = 200 * math.Sqrt(float64(nodes)/100)
	cfg.IC = false
	cfg.Lambda = 16
	cfg.SimTime = 30
	cfg.TargetStart = 10
	cfg.TargetPeriod = 50
	cfg.TargetDuration = 15
	cfg.Faulty = 0
	cfg.Fault = sensor.FaultNone
	return cfg
}

// SensorResult is the outcome of one run. The churn fields are zero (and
// absent from the JSON form) unless the run scheduled membership churn.
type SensorResult struct {
	Targets          int
	Missed           int
	MissAlarm        float64 // fraction of targets never reported at base
	FalseAlarmProb   float64 // spurious notifications per sensor-epoch, percent
	EnergyPerNode    float64 // joules over the whole run
	TrafficEnergy    float64 // joules minus the common idle floor
	DetectionLatency float64 // seconds, mean over detected targets
	LocalizationErr  float64 // metres, mean over detected targets
	Notifications    int     // total notifications the base accepted

	ChurnEvents     int `json:"churn_events,omitempty"`         // effective membership transitions
	ChurnReshares   int `json:"churn_reshares,omitempty"`       // reshares executed
	ChurnRefreshes  int `json:"churn_refreshes,omitempty"`      // proactive refreshes executed
	RoundsAborted   int `json:"churn_rounds_aborted,omitempty"` // vote rounds drained by transitions
	MembershipEpoch int `json:"membership_epoch,omitempty"`     // final key epoch
}

// notifMsg wraps an encoded notification for transport (the centralized
// solution's raw report).
type notifMsg struct {
	Data []byte
}

// Size implements link.Message.
func (m notifMsg) Size() int { return len(m.Data) }

// agreedWrap carries a voted agreed message through diffusion.
type agreedWrap struct {
	M vote.AgreedMsg
}

// Size implements link.Message.
func (w agreedWrap) Size() int { return w.M.Size() }

// sensorKeySeed seeds the sensor scenario's RSA key stream.
const sensorKeySeed = 0x5EED0C

// sensorKeys caches the sensor scenario's RSA key set across runs:
// generating it dominates run setup otherwise. The keys are drawn one after
// another from one seeded stream (node.GenerateKeySetSeeded's order) —
// modulus bit lengths feed beacon-signature wire sizes, so key material
// must be identical across processes for sweeps to reproduce exactly — and
// the cache keeps the stream where the last key left it, so a replica
// larger than any before it draws only the keys that are missing: the first
// n keys are the same whatever sizes were asked for, in whatever order. The
// mutex guards growth; replicas on the parallel engine only ever read the
// finished key pairs.
var sensorKeys struct {
	sync.Mutex
	stream *mrand.Rand
	keys   []*nsl.KeyPair
}

func cachedSensorKeys(n int) ([]*nsl.KeyPair, error) {
	c := &sensorKeys
	c.Lock()
	defer c.Unlock()
	if c.stream == nil {
		c.stream = mrand.New(mrand.NewSource(sensorKeySeed))
	}
	for len(c.keys) < n {
		kp, err := nsl.GenerateKeyPair(512, c.stream)
		if err != nil {
			err = fmt.Errorf("experiment: sensor key %d: %w", len(c.keys), err)
			// The stream stopped mid-key: start over next time.
			c.stream, c.keys = nil, nil
			return nil, err
		}
		c.keys = append(c.keys, kp)
	}
	return c.keys[:n:n], nil
}

// sensorApp is the per-node application state for the sensor scenario.
type sensorApp struct {
	nd      *node.Node
	dev     *sensor.Device
	diff    *diffusion.Service
	cfg     *SensorConfig
	epoch   int64 // current sensing epoch index
	reading sensor.Reading
	// covered marks epochs for which this node already participates in an
	// inner-circle agreement (as voter or member), suppressing its own
	// duplicate proposal.
	covered map[int64]bool
	propose *sim.Timer
}

// sensorNet is the Fig. 8 scenario component: sensing devices and
// directed-diffusion dissemination per node, base-station bookkeeping at
// node 0, and the epoch-driven sensing application.
type sensorNet struct {
	cfg       SensorConfig
	fuse      func(center link.NodeID, values [][]byte) []byte
	targets   []sensor.Target
	apps      []*sensorApp
	baseDiff  *diffusion.Service
	notifs    []baseNotif
	perTarget map[int][]baseNotif
}

func newSensorNet(cfg SensorConfig) *sensorNet {
	n := cfg.Nodes
	if n < 0 {
		n = 0
	}
	return &sensorNet{
		cfg:       cfg,
		fuse:      makeSensorFuse(cfg),
		apps:      make([]*sensorApp, n),
		perTarget: make(map[int][]baseNotif),
	}
}

// Reset implements scenario.Resetter: a sharded attempt that aborts on a
// timestamp tie is followed by a second with the same component values, so
// every piece of replica state accumulated by the abandoned attempt —
// target schedule, app array, base-station log — must be dropped first.
func (sc *sensorNet) Reset() {
	n := len(sc.apps)
	sc.targets = nil
	sc.apps = make([]*sensorApp, n)
	sc.baseDiff = nil
	sc.notifs = nil
	sc.perTarget = make(map[int][]baseNotif)
}

// Validate implements scenario.Validator: the population floor and the
// parameter gaps that would wedge the run (a non-positive sense period
// stalls the epoch chain; a non-positive target period loops target
// generation forever).
func (sc *sensorNet) Validate(s *scenario.Spec) error {
	if s.Nodes < 10 {
		return fmt.Errorf("experiment: need at least 10 nodes")
	}
	c := &sc.cfg
	if c.Region <= 0 || c.Range <= 0 {
		return fmt.Errorf("experiment: sensor scenario needs positive region and radio range")
	}
	if c.SensePeriod <= 0 {
		return fmt.Errorf("experiment: sensor scenario needs positive sense period")
	}
	if !c.NoTarget && c.TargetPeriod <= 0 {
		return fmt.Errorf("experiment: sensor scenario needs positive target period")
	}
	return nil
}

// Wire implements scenario.Wirer: draw the target schedule. Onset is
// uniformly random within a sensing period, so the first post-onset
// sensing epoch lags the target by U(0, SensePeriod) — the sampling-phase
// component of detection latency.
func (sc *sensorNet) Wire(env *scenario.Env) {
	c := &sc.cfg
	if c.NoTarget {
		return
	}
	tgtRNG := env.SeedStream("targets")
	for start := c.TargetStart; start+c.TargetDuration <= c.SimTime; start += c.TargetPeriod {
		onset := start + tgtRNG.Jitter(c.SensePeriod)
		sc.targets = append(sc.targets, sensor.Target{
			Pos: geo.Point{
				X: tgtRNG.Uniform(0.2*c.Region, 0.8*c.Region),
				Y: tgtRNG.Uniform(0.2*c.Region, 0.8*c.Region),
			},
			Start: onset,
			End:   onset + c.TargetDuration,
		})
	}
}

// Register implements scenario.Registrar (IC mode): the app is created in
// node.Build's voting pass so its hooks become the vote callbacks.
func (sc *sensorNet) Register(_ *scenario.Env, nd *node.Node) vote.Callbacks {
	app := &sensorApp{nd: nd, cfg: &sc.cfg, covered: make(map[int64]bool)}
	sc.apps[nd.Index] = app
	return vote.Callbacks{
		LocalValue: app.localValue,
		Fuse:       sc.fuse,
		OnAgreed:   app.onAgreed,
	}
}

// Attach implements scenario.Component: diffusion dissemination on every
// node — exploratory-flood (classic directed diffusion's first phase)
// over an unacknowledged broadcast MAC; both configurations use the same
// substrate, the inner-circle solution simply injects far fewer messages
// into it — plus the sensing device (sensors) or sink bookkeeping (base).
func (sc *sensorNet) Attach(env *scenario.Env, nd *node.Node) {
	diffCfg := diffusion.Config{InterestPeriod: 20, GradientTimeout: 60, Unreliable: true, FloodData: true}
	ds, err := diffusion.New(diffCfg, diffusion.Deps{
		ID: nd.ID, K: nd.K, Link: nd.Link, RNG: nd.RNG.Split("diffusion"),
	})
	if err != nil {
		env.Fail(err)
		return
	}
	nd.Handle(ds.HandleEnv)
	i := nd.Index
	if sc.apps[i] == nil { // No-IC path (IC callbacks already made one)
		sc.apps[i] = &sensorApp{nd: nd, cfg: &sc.cfg, covered: make(map[int64]bool)}
	}
	sc.apps[i].diff = ds
	if i == 0 {
		ds.SetSink(true)
		sc.baseDiff = ds
		sc.attachBase(env, nd, ds)
		return
	}
	sc.apps[i].dev = sensor.NewDevice(sc.cfg.Model, env.Positions[i], sc.cfg.Lambda, nd.RNG.Split("sensor"))
}

// attachBase hooks the base station's delivery upcall: decode, verify in
// IC mode, classify against the target schedule, record.
func (sc *sensorNet) attachBase(env *scenario.Env, baseNode *node.Node, ds *diffusion.Service) {
	c := &sc.cfg
	ds.OnDeliver(func(src link.NodeID, hops int, payload link.Message) {
		// The base station's own kernel, not env.K(): under sharding the
		// delivery upcall runs on the base's home shard, whose clock is the
		// only one this callback may read.
		now := baseNode.K.Now()
		var n sensor.Notification
		switch m := payload.(type) {
		case notifMsg:
			if c.IC {
				return // raw notifications are not accepted in IC mode
			}
			d, err := sensor.DecodeNotification(m.Data)
			if err != nil {
				return
			}
			n = d
		case agreedWrap:
			if !c.IC {
				return
			}
			if baseNode.Vote.VerifyAgreed(m.M) != nil {
				return // remote signature check failed
			}
			d, err := sensor.DecodeNotification(m.M.Value)
			if err != nil {
				return
			}
			n = d
		default:
			return
		}
		bn := baseNotif{at: now, notif: n, target: sc.classify(now)}
		sc.notifs = append(sc.notifs, bn)
		if bn.target >= 0 {
			sc.perTarget[bn.target] = append(sc.perTarget[bn.target], bn)
		}
	})
}

// classify returns the target index whose window (plus in-flight slack)
// covers at, or -1 for a spurious notification.
func (sc *sensorNet) classify(at sim.Time) int {
	const slack = 5
	for ti, tg := range sc.targets {
		if at >= tg.Start && at < tg.End+slack {
			return ti
		}
	}
	return -1
}

// activeTarget returns the position of the target active at time at, or
// nil.
func (sc *sensorNet) activeTarget(at sim.Time) *geo.Point {
	for i := range sc.targets {
		if sc.targets[i].ActiveAt(at) {
			return &sc.targets[i].Pos
		}
	}
	return nil
}

// Start implements scenario.Starter: bring up the base station's interest
// flooding shortly after t=0, on the base station's own kernel (its home
// shard's when the replica is partitioned).
func (sc *sensorNet) Start(env *scenario.Env) {
	sc.apps[0].nd.K.ScheduleFire(0.1, func() { sc.baseDiff.Start() })
}

// onEpochNode is the traffic program's per-node epoch hook: one sensing
// epoch at one sensor, issued by the node's home kernel. The target
// schedule is immutable during the run, so concurrent reads from every
// shard are safe.
func (sc *sensorNet) onEpochNode(epoch int64, now sim.Time, node int) {
	if node == 0 {
		return // the base station does not sense
	}
	sc.apps[node].sense(epoch, sc.activeTarget(now))
}

// result folds the base station's log, with what the runner measured of the
// same replica, into the paper's Fig. 8 metrics.
func (sc *sensorNet) result(res *scenario.Result) SensorResult {
	c := &sc.cfg
	out := SensorResult{
		Targets:         len(sc.targets),
		Notifications:   len(sc.notifs),
		EnergyPerNode:   res.EnergyPerNode,
		TrafficEnergy:   res.EnergyPerNode - energy.NS2Default().IdlePower*float64(c.SimTime),
		ChurnEvents:     int(res.Churn.Events),
		ChurnReshares:   int(res.Churn.Reshares),
		ChurnRefreshes:  int(res.Churn.Refreshes),
		RoundsAborted:   int(res.Churn.RoundsAborted),
		MembershipEpoch: int(res.Churn.Epoch),
	}
	var latSum, locSum float64
	detected := 0
	for ti, tg := range sc.targets {
		ns := sc.perTarget[ti]
		if len(ns) == 0 {
			out.Missed++
			continue
		}
		detected++
		latSum += float64(ns[0].at - tg.Start)
		var pts []geo.Point
		for _, bn := range ns {
			pts = append(pts, bn.notif.Pos)
		}
		locSum += geo.Centroid(pts).Dist(tg.Pos)
	}
	if out.Targets > 0 {
		out.MissAlarm = float64(out.Missed) / float64(out.Targets)
	}
	if detected > 0 {
		out.DetectionLatency = latSum / float64(detected)
		out.LocalizationErr = locSum / float64(detected)
	}
	spurious := 0
	for _, bn := range sc.notifs {
		if bn.target < 0 {
			spurious++
		}
	}
	// Per sensor-epoch false alarm probability (percent): spurious
	// notifications accepted at the base over sensor-epochs without an
	// active target.
	noTargetEpochs := 0
	for e := int64(1); ; e++ {
		at := sim.Time(e) * c.SensePeriod
		if at >= c.SimTime {
			break
		}
		if sc.activeTarget(at) == nil {
			noTargetEpochs++
		}
	}
	if noTargetEpochs > 0 {
		out.FalseAlarmProb = 100 * float64(spurious) / float64(noTargetEpochs*(c.Nodes-1))
	}
	return out
}

// deviceFaults is the Fig. 8 adversary: Faulty sensing devices (chosen
// among indices 1..Nodes-1 from the "faults" stream) injected with the
// configured measurement fault.
type deviceFaults struct {
	sc *sensorNet
}

// Budget implements scenario.Adversary: device faults claim no
// attacker-order nodes (they corrupt measurements, not the population the
// traffic program reserves).
func (d deviceFaults) Budget(int) (int, error) { return 0, nil }

// ShardSafe implements scenario.ShardSafe: Apply only flips pre-run flags
// on sensing devices, and a faulty device's runtime effects stay on its own
// node's kernel.
func (d deviceFaults) ShardSafe() {}

// Apply implements scenario.Adversary.
func (d deviceFaults) Apply(env *scenario.Env, _ []int) error {
	c := &d.sc.cfg
	faultRNG := env.SeedStream("faults")
	perm := faultRNG.Perm(env.Spec.Nodes - 1)
	region := geo.Square(c.Region)
	for i := 0; i < c.Faulty && i < len(perm); i++ {
		d.sc.apps[perm[i]+1].dev.InjectFault(c.Fault, c.FaultParams, region)
	}
	return nil
}

// sensorSpec assembles the declarative Fig. 8 scenario and returns its
// sensorNet component, whose result method reads the Fig. 8 metrics once
// the spec has run.
func sensorSpec(cfg SensorConfig) (*scenario.Spec, *sensorNet, error) {
	stsCfg := sts.Config{}
	voteCfg := vote.Config{}
	var keys []*nsl.KeyPair
	if cfg.IC {
		stsCfg = sts.Config{
			Period:          45, // τ < ∆STS/2 with ∆STS = 100 s (Fig. 8 box)
			Delta:           100,
			Authenticate:    true,
			Handshake:       false,
			BeaconBaseBytes: 28,
		}
		voteCfg = vote.Config{Mode: vote.Statistical, L: cfg.L, RoundTimeout: 0.5, Retries: 1}
		var err error
		keys, err = cachedSensorKeys(cfg.Nodes)
		if err != nil {
			return nil, nil, err
		}
	}
	sc := newSensorNet(cfg)
	spec := &scenario.Spec{
		Name:       "sensornet",
		Nodes:      cfg.Nodes,
		Seed:       cfg.Seed,
		SimTime:    cfg.SimTime,
		Shards:     cfg.Shards,
		ShardStats: cfg.ShardStats,
		Topology: scenario.BaseStationGrid{
			Region:     geo.Square(cfg.Region),
			GridJitter: cfg.Region / 50,
			Uniform:    cfg.UniformPlacement,
		},
		Stack: scenario.Stack{
			Radio:        radio.Params{Range: cfg.Range, Bitrate: 2e6, PropSpeed: 3e8},
			MAC:          mac.Default80211(),
			Energy:       energy.NS2Default(),
			IC:           cfg.IC,
			STS:          stsCfg,
			Vote:         voteCfg,
			MaxL:         max(cfg.L, 2),
			Keys:         keys,
			SigWireBytes: 64, // 512-bit keys per the Fig. 8 box
			// STS starts are jittered to avoid a synchronized beacon
			// collision storm at t=0.
			STSStart:   scenario.STSStart{Jitter: 2},
			Components: []scenario.Component{sc},
		},
		Traffic: &traffic.Epochs{Period: cfg.SensePeriod, OnNode: sc.onEpochNode},
		Churn:   cfg.Churn,
	}
	if cfg.Fault != sensor.FaultNone {
		spec.Adversary = deviceFaults{sc: sc}
	}
	return spec, sc, nil
}

// RunSensor executes one Fig. 8 simulation run.
func RunSensor(cfg SensorConfig) (SensorResult, error) {
	out, _, err := runSensorShards(cfg)
	return out, err
}

// runSensorShards is RunSensor plus the shard count the replica actually
// executed with (provenance for the artifact manifests).
func runSensorShards(cfg SensorConfig) (SensorResult, int, error) {
	spec, sc, err := sensorSpec(cfg)
	if err != nil {
		return SensorResult{}, 0, err
	}
	res, err := scenario.Run(spec)
	if err != nil {
		return SensorResult{}, 0, fmt.Errorf("experiment: %w", err)
	}
	return sc.result(res), res.Shards, nil
}

// SensorPair is one Fig. 8 grid point's paired replicas: the with-target
// run (Figs. 8 a–c, e–f) and the no-target run (Fig. 8 d). The pair
// shares a seed and reports together, as in the paper's sweep.
type SensorPair struct {
	Target   SensorResult `json:"target"`
	NoTarget SensorResult `json:"no_target"`
}

// runSensorPairShards executes one Fig. 8 grid point — both paired
// replicas — and returns the executed shard count beside it (the maximum
// over the pair; provenance for the artifact manifests).
func runSensorPairShards(cfg SensorConfig) (SensorPair, int, error) {
	res, shards, err := runSensorShards(cfg)
	if err != nil {
		return SensorPair{}, 0, err
	}
	ntCfg := cfg
	ntCfg.NoTarget = true
	ntRes, ntShards, err := runSensorShards(ntCfg)
	if err != nil {
		return SensorPair{}, 0, err
	}
	return SensorPair{Target: res, NoTarget: ntRes}, max(shards, ntShards), nil
}

type baseNotif struct {
	at     sim.Time
	notif  sensor.Notification
	target int
}

// sense runs one sensing epoch at a sensor node.
func (a *sensorApp) sense(epoch int64, target *geo.Point) {
	a.epoch = epoch
	a.reading = a.dev.Sample(target)
	if !a.reading.Detected {
		return
	}
	n := sensor.Notification{
		Time:   a.nd.K.Now(),
		Energy: a.reading.Energy,
		Pos:    a.dev.ReportedPos(),
	}
	if !a.cfg.IC {
		// Centralized solution: raw notification straight to the base.
		_ = a.diff.Send(notifMsg{Data: n.Encode()})
		return
	}
	// Inner-circle solution: propose with a small jitter; drop the
	// proposal if a neighbouring circle covers this epoch first
	// (duplicate suppression).
	if a.covered[epoch] {
		return
	}
	e := epoch
	if a.propose == nil {
		a.propose = sim.NewTimer(a.nd.K, func() {})
	}
	a.propose.Stop()
	jitter := a.nd.RNG.Jitter(1.0)
	a.propose = sim.NewTimer(a.nd.K, func() {
		if a.covered[e] || a.epoch != e {
			return
		}
		_ = a.nd.Vote.Propose(n.Encode())
	})
	a.propose.Reset(jitter)
}

// localValue answers a statistical-voting solicit: contribute this node's
// reading when it detected a target in the current epoch.
func (a *sensorApp) localValue(center link.NodeID, meta []byte) ([]byte, bool) {
	if a.dev == nil || !a.reading.Detected {
		return nil, false
	}
	// Participating in a neighbour's round covers this epoch: suppress our
	// own duplicate proposal.
	a.covered[a.epoch] = true
	n := sensor.Notification{
		Time:   a.nd.K.Now(),
		Energy: a.reading.Energy,
		Pos:    a.dev.ReportedPos(),
	}
	return n.Encode(), true
}

// onAgreed runs at inner-circle members when a round completes: members
// suppress their own proposals, and the center forwards the agreed message
// to the base station.
func (a *sensorApp) onAgreed(m vote.AgreedMsg) {
	a.covered[a.epoch] = true
	if m.Center == a.nd.ID && a.diff != nil {
		_ = a.diff.Send(agreedWrap{M: m})
	}
}

// makeSensorFuse builds the statistical fusion function of §5.2: per-field
// FT-cluster fusion of the notifications, with the target position derived
// by trilateration over all anchor triples and filtered by the FT-cluster
// algorithm (η from the config).
func makeSensorFuse(cfg SensorConfig) func(center link.NodeID, values [][]byte) []byte {
	return func(center link.NodeID, values [][]byte) []byte {
		var times, energies []fusion.Vec
		var anchors []geo.Point
		var dists []float64
		for _, v := range values {
			n, err := sensor.DecodeNotification(v)
			if err != nil {
				continue
			}
			times = append(times, fusion.V1(float64(n.Time)))
			energies = append(energies, fusion.V1(n.Energy))
			if d, err := cfg.Model.DistanceFor(n.Energy); err == nil {
				anchors = append(anchors, n.Pos)
				dists = append(dists, d)
			}
		}
		if len(times) == 0 {
			return nil
		}
		fusedTime := fuse1(cfg.Fusion, times, 2*float64(cfg.SensePeriod))
		fusedEnergy := fuse1(cfg.Fusion, energies, 4*cfg.Model.SigmaN*cfg.Model.SigmaN*10)
		// Position: trilaterate all triples (capped at 3L estimates, per
		// the paper), apply the application-aware range check (estimates
		// must fall inside the deployment region — near-collinear anchor
		// triples produce wild solutions), then filter with the
		// FT-cluster algorithm.
		pos := geo.Centroid(anchors)
		region := geo.Square(cfg.Region)
		ests := fusion.TrilaterateAll(anchors, dists, 3*len(values))
		var obs []fusion.Vec
		for _, e := range ests {
			if region.Contains(e) {
				obs = append(obs, fusion.V2(e.X, e.Y))
			}
		}
		if len(obs) > 0 {
			if est := fuse2(cfg.Fusion, obs, cfg.Eta); est != nil {
				pos = geo.Point{X: est[0], Y: est[1]}
			}
		}
		out := sensor.Notification{Time: sim.Time(fusedTime), Energy: fusedEnergy, Pos: pos}
		return out.Encode()
	}
}

// fuse1 fuses scalar observations with the selected algorithm.
func fuse1(alg FusionAlg, obs []fusion.Vec, eta float64) float64 {
	est := fuse2(alg, obs, eta)
	if len(est) == 0 {
		return 0
	}
	return est[0]
}

// fuse2 fuses vector observations with the selected algorithm; nil on
// failure.
func fuse2(alg FusionAlg, obs []fusion.Vec, eta float64) fusion.Vec {
	switch alg {
	case FusionMean:
		// Tolerate up to a third faulty inputs, the paper's working point.
		f := (len(obs) - 1) / 3
		if v, err := fusion.FTMean(obs, f); err == nil {
			return v
		}
		return nil
	case FusionNaive:
		if v, err := fusion.Centroid(obs); err == nil {
			return v
		}
		return nil
	default:
		if r, err := fusion.FTCluster(obs, eta); err == nil {
			return r.Estimate
		}
		return nil
	}
}
