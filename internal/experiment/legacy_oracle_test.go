package experiment

// Frozen copies of the hand-wired RunBlackhole/RunSensor harnesses as
// they stood before the scenario-layer refactor. They are the oracle: the
// declarative Spec path must reproduce them result-for-result (exact
// float equality). Do not "improve" these — their value is that they
// never change.

import (
	"fmt"
	"testing"

	"innercircle/internal/aodv"
	"innercircle/internal/diffusion"
	"innercircle/internal/energy"
	"innercircle/internal/faults"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/sensor"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

func legacyRunBlackhole(cfg BlackholeConfig) (BlackholeResult, error) {
	if cfg.Nodes < 4 {
		return BlackholeResult{}, fmt.Errorf("experiment: need at least 4 nodes")
	}
	region := geo.Square(cfg.Region)
	seedRNG := sim.NewRNG(cfg.Seed)
	placeRNG := seedRNG.Split("placement")
	positions := mobility.UniformPlacement(region, cfg.Nodes, placeRNG)

	stsCfg := sts.Config{}
	voteCfg := vote.Config{}
	if cfg.IC {
		stsCfg = sts.Config{
			Period:          0.9,
			Delta:           2,
			Authenticate:    true,
			Handshake:       false,
			BeaconBaseBytes: 28,
		}
		voteCfg = vote.Config{Mode: vote.Deterministic, L: cfg.L, RoundTimeout: 0.15, Retries: 2}
	}

	routers := make([]*aodv.Router, cfg.Nodes)
	received := 0
	receivedCorrupt := 0

	ncfg := node.Config{
		N:      cfg.Nodes,
		Seed:   cfg.Seed,
		Radio:  radio.Default80211(),
		MAC:    mac.Default80211(),
		Energy: energy.NS2Default(),
		Mobility: func(i int, rng *sim.RNG) mobility.Model {
			return mobility.NewWaypoint(mobility.WaypointConfig{
				Region:   region,
				MinSpeed: cfg.Speed,
				MaxSpeed: cfg.Speed,
				Pause:    cfg.Pause,
			}, positions[i], rng)
		},
		IC:           cfg.IC,
		STS:          stsCfg,
		Vote:         voteCfg,
		MaxL:         max(2, cfg.L),
		SigWireBytes: 128,
		Tracer:       cfg.Tracer,
	}
	buildRouter := func(nd *node.Node) *aodv.Router {
		r, err := aodv.New(aodv.DefaultConfig(), aodv.Deps{
			ID: nd.ID, K: nd.K, Link: nd.Link, RNG: nd.RNG.Split("aodv"),
		})
		if err != nil {
			panic(err)
		}
		routers[nd.Index] = r
		r.OnDeliver(func(d aodv.Data) {
			if s, ok := d.Payload.(string); ok && len(s) >= len(corruptMark) && s[:len(corruptMark)] == corruptMark {
				receivedCorrupt++
				return
			}
			received++
		})
		nd.Handle(r.HandleEnv)
		return r
	}
	if cfg.IC {
		ncfg.Callbacks = func(nd *node.Node) vote.Callbacks {
			r := buildRouter(nd)
			_, cbs := aodv.NewICAdapter(nd.ID, r, nd.Intercept, func(v []byte) error { return nd.Vote.Propose(v) })
			return cbs
		}
	}

	net, err := node.Build(ncfg)
	if err != nil {
		return BlackholeResult{}, fmt.Errorf("experiment: build: %w", err)
	}
	if !cfg.IC {
		for _, nd := range net.Nodes {
			buildRouter(nd)
		}
	}
	trafRNG := seedRNG.Split("traffic")
	perm := trafRNG.Perm(cfg.Nodes)
	if cfg.Connections*2+cfg.Malicious > cfg.Nodes {
		return BlackholeResult{}, fmt.Errorf("experiment: %d nodes cannot host %d connections + %d attackers",
			cfg.Nodes, cfg.Connections, cfg.Malicious)
	}
	type conn struct{ src, dst int }
	conns := make([]conn, cfg.Connections)
	for i := range conns {
		conns[i] = conn{src: perm[2*i], dst: perm[2*i+1]}
	}

	camp := cfg.Campaign
	if camp == nil && cfg.Malicious > 0 {
		var c faults.Campaign
		if cfg.GrayProb > 0 {
			c = faults.GrayholePreset(cfg.Malicious, cfg.GrayProb)
		} else {
			c = faults.BlackholePreset(cfg.Malicious)
		}
		camp = &c
	}
	var applied *faults.Applied
	if camp != nil {
		applied, err = faults.Apply(faults.Fabric{
			K:     net.K,
			RNG:   seedRNG,
			N:     cfg.Nodes,
			Order: perm[cfg.Connections*2:],
			Link: func(i int) faults.LinkPort {
				return net.Nodes[i].Link
			},
			Router: func(i int) faults.RouterCtl {
				if routers[i] == nil {
					return nil
				}
				return routers[i]
			},
			Vote: func(i int) faults.VoteCtl {
				if net.Nodes[i].Vote == nil {
					return nil
				}
				return net.Nodes[i].Vote
			},
			Mutate: corruptPayload,
		}, camp)
		if err != nil {
			return BlackholeResult{}, fmt.Errorf("experiment: %w", err)
		}
	}

	net.StartSTS()

	sent := 0
	interval := sim.Duration(1 / cfg.Rate)
	for ci, c := range conns {
		c := c
		start := cfg.TrafficFrom + trafRNG.Jitter(interval)
		var tick func()
		seq := 0
		tick = func() {
			if net.K.Now() >= cfg.SimTime {
				return
			}
			sent++
			seq++
			_ = routers[c.src].Send(link.NodeID(c.dst), fmt.Sprintf("c%d-%d", ci, seq), cfg.PacketBytes)
			net.K.ScheduleFire(interval, tick)
		}
		net.K.ScheduleFire(start, tick)
	}

	if err := net.Run(cfg.SimTime); err != nil {
		return BlackholeResult{}, fmt.Errorf("experiment: run: %w", err)
	}

	res := BlackholeResult{Sent: sent, Received: received, ReceivedCorrupt: receivedCorrupt}
	if sent > 0 {
		res.Throughput = 100 * float64(received) / float64(sent)
	}
	res.EnergyPerNode = net.TotalEnergy() / float64(cfg.Nodes)
	if applied != nil {
		res.FaultsInjected = applied.Report().TotalInjected()
		res.FaultsLeaked = uint64(receivedCorrupt)
		for _, nd := range net.Nodes {
			if nd.Intercept != nil {
				res.FaultsSuppressed += nd.Intercept.Stats.SuppressedSuspect + nd.Intercept.Stats.SuppressedBadSig
			}
			if nd.STS != nil {
				res.FaultsSuppressed += nd.STS.Stats.BeaconsRejected
			}
			if nd.Vote != nil {
				res.FaultsSuppressed += nd.Vote.Stats.PartialsRejected + nd.Vote.Stats.AgreedInvalid
			}
		}
	}
	for _, nd := range net.Nodes {
		if nd.Vote != nil {
			res.VerifiesAvoided += nd.Vote.Stats.MemoHits
		}
	}
	return res, nil
}

func legacyRunSensor(cfg SensorConfig) (SensorResult, error) {
	if cfg.Nodes < 10 {
		return SensorResult{}, fmt.Errorf("experiment: need at least 10 nodes")
	}
	region := geo.Square(cfg.Region)
	seedRNG := sim.NewRNG(cfg.Seed)

	positions := make([]geo.Point, cfg.Nodes)
	positions[0] = region.Center()
	var sensorsPos []geo.Point
	if cfg.UniformPlacement {
		sensorsPos = mobility.UniformPlacement(region, cfg.Nodes-1, seedRNG.Split("placement"))
	} else {
		sensorsPos = mobility.GridPlacement(region, cfg.Nodes-1, cfg.Region/50, seedRNG.Split("placement"))
	}
	copy(positions[1:], sensorsPos)

	var targets []sensor.Target
	if !cfg.NoTarget {
		tgtRNG := seedRNG.Split("targets")
		for start := cfg.TargetStart; start+cfg.TargetDuration <= cfg.SimTime; start += cfg.TargetPeriod {
			onset := start + tgtRNG.Jitter(cfg.SensePeriod)
			targets = append(targets, sensor.Target{
				Pos: geo.Point{
					X: tgtRNG.Uniform(0.2*cfg.Region, 0.8*cfg.Region),
					Y: tgtRNG.Uniform(0.2*cfg.Region, 0.8*cfg.Region),
				},
				Start: onset,
				End:   onset + cfg.TargetDuration,
			})
		}
	}

	stsCfg := sts.Config{}
	voteCfg := vote.Config{}
	if cfg.IC {
		stsCfg = sts.Config{
			Period:          45,
			Delta:           100,
			Authenticate:    true,
			Handshake:       false,
			BeaconBaseBytes: 28,
		}
		voteCfg = vote.Config{Mode: vote.Statistical, L: cfg.L, RoundTimeout: 0.5, Retries: 1}
	}

	apps := make([]*sensorApp, cfg.Nodes)
	fuseFn := makeSensorFuse(cfg)

	ncfg := node.Config{
		N:      cfg.Nodes,
		Seed:   cfg.Seed,
		Radio:  radio.Params{Range: cfg.Range, Bitrate: 2e6, PropSpeed: 3e8},
		MAC:    mac.Default80211(),
		Energy: energy.NS2Default(),
		Mobility: func(i int, _ *sim.RNG) mobility.Model {
			return mobility.Static(positions[i])
		},
		IC:           cfg.IC,
		STS:          stsCfg,
		Vote:         voteCfg,
		MaxL:         max(cfg.L, 2),
		SigWireBytes: 64,
	}
	if cfg.IC {
		ncfg.Callbacks = func(nd *node.Node) vote.Callbacks {
			app := &sensorApp{nd: nd, cfg: &cfg, covered: make(map[int64]bool)}
			apps[nd.Index] = app
			return vote.Callbacks{
				LocalValue: app.localValue,
				Fuse:       fuseFn,
				OnAgreed:   app.onAgreed,
			}
		}
	}
	net, err := node.Build(ncfg)
	if err != nil {
		return SensorResult{}, fmt.Errorf("experiment: build: %w", err)
	}

	diffCfg := diffusion.Config{InterestPeriod: 20, GradientTimeout: 60, Unreliable: true, FloodData: true}
	base := struct {
		notifs    []baseNotif
		perTarget map[int][]baseNotif
	}{perTarget: make(map[int][]baseNotif)}

	for i, nd := range net.Nodes {
		ds, err := diffusion.New(diffCfg, diffusion.Deps{
			ID: nd.ID, K: nd.K, Link: nd.Link, RNG: nd.RNG.Split("diffusion"),
		})
		if err != nil {
			return SensorResult{}, err
		}
		nd.Handle(ds.HandleEnv)
		if apps[i] == nil {
			apps[i] = &sensorApp{nd: nd, cfg: &cfg, covered: make(map[int64]bool)}
		}
		apps[i].diff = ds
		if i == 0 {
			ds.SetSink(true)
		} else {
			apps[i].dev = sensor.NewDevice(cfg.Model, positions[i], cfg.Lambda, nd.RNG.Split("sensor"))
		}
	}

	faultRNG := seedRNG.Split("faults")
	if cfg.Fault != sensor.FaultNone {
		perm := faultRNG.Perm(cfg.Nodes - 1)
		for i := 0; i < cfg.Faulty && i < len(perm); i++ {
			apps[perm[i]+1].dev.InjectFault(cfg.Fault, cfg.FaultParams, region)
		}
	}

	classify := func(at sim.Time) int {
		const slack = 5
		for ti, tg := range targets {
			if at >= tg.Start && at < tg.End+slack {
				return ti
			}
		}
		return -1
	}
	baseNode := net.Nodes[0]
	baseDiff := apps[0].diff
	baseDiff.OnDeliver(func(src link.NodeID, hops int, payload link.Message) {
		now := net.K.Now()
		var n sensor.Notification
		switch m := payload.(type) {
		case notifMsg:
			if cfg.IC {
				return
			}
			d, err := sensor.DecodeNotification(m.Data)
			if err != nil {
				return
			}
			n = d
		case agreedWrap:
			if !cfg.IC {
				return
			}
			if baseNode.Vote.VerifyAgreed(m.M) != nil {
				return
			}
			d, err := sensor.DecodeNotification(m.M.Value)
			if err != nil {
				return
			}
			n = d
		default:
			return
		}
		bn := baseNotif{at: now, notif: n, target: classify(now)}
		base.notifs = append(base.notifs, bn)
		if bn.target >= 0 {
			base.perTarget[bn.target] = append(base.perTarget[bn.target], bn)
		}
	})

	startRNG := seedRNG.Split("starts")
	for _, nd := range net.Nodes {
		if nd.STS != nil {
			svc := nd.STS
			net.K.ScheduleFire(startRNG.Jitter(2), svc.Start)
		}
	}
	net.K.ScheduleFire(0.1, func() { baseDiff.Start() })

	activeTarget := func(at sim.Time) *geo.Point {
		for _, tg := range targets {
			if tg.ActiveAt(at) {
				return &tg.Pos
			}
		}
		return nil
	}
	var epochFn func()
	epochIdx := int64(0)
	epochFn = func() {
		now := net.K.Now()
		if now >= cfg.SimTime {
			return
		}
		epochIdx++
		tpos := activeTarget(now)
		for i := 1; i < cfg.Nodes; i++ {
			apps[i].sense(epochIdx, tpos)
		}
		net.K.ScheduleFire(cfg.SensePeriod, epochFn)
	}
	net.K.ScheduleFire(cfg.SensePeriod, epochFn)

	if err := net.Run(cfg.SimTime); err != nil {
		return SensorResult{}, fmt.Errorf("experiment: run: %w", err)
	}

	res := SensorResult{Targets: len(targets), Notifications: len(base.notifs)}
	var latSum, locSum float64
	detected := 0
	for ti, tg := range targets {
		ns := base.perTarget[ti]
		if len(ns) == 0 {
			res.Missed++
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
	if len(targets) > 0 {
		res.MissAlarm = float64(res.Missed) / float64(len(targets))
	}
	if detected > 0 {
		res.DetectionLatency = latSum / float64(detected)
		res.LocalizationErr = locSum / float64(detected)
	}
	spurious := 0
	for _, bn := range base.notifs {
		if bn.target < 0 {
			spurious++
		}
	}
	noTargetEpochs := 0
	for e := int64(1); ; e++ {
		at := sim.Time(e) * cfg.SensePeriod
		if at >= cfg.SimTime {
			break
		}
		if activeTarget(at) == nil {
			noTargetEpochs++
		}
	}
	if noTargetEpochs > 0 {
		res.FalseAlarmProb = 100 * float64(spurious) / float64(noTargetEpochs*(cfg.Nodes-1))
	}
	res.EnergyPerNode = net.TotalEnergy() / float64(cfg.Nodes)
	res.TrafficEnergy = res.EnergyPerNode - energy.NS2Default().IdlePower*float64(cfg.SimTime)
	return res, nil
}

// TestScenarioMatchesLegacyBlackhole pins the refactor's hard constraint:
// the declarative Spec path reproduces the frozen hand-wired harness
// exactly — every field, exact float equality — across the adversary
// shapes the sweeps exercise.
func TestScenarioMatchesLegacyBlackhole(t *testing.T) {
	corrupt := faults.CorruptPreset(3, 0.5)
	cases := []struct {
		name string
		cfg  func() BlackholeConfig
	}{
		{"clean no-IC", func() BlackholeConfig { return smallBlackhole() }},
		{"blackhole attack no-IC", func() BlackholeConfig {
			cfg := smallBlackhole()
			cfg.Malicious = 3
			return cfg
		}},
		{"blackhole attack IC", func() BlackholeConfig {
			cfg := smallBlackhole()
			cfg.Malicious = 3
			cfg.IC = true
			cfg.L = 1
			return cfg
		}},
		{"grayhole IC L=2", func() BlackholeConfig {
			cfg := smallBlackhole()
			cfg.Malicious = 4
			cfg.GrayProb = 0.5
			cfg.IC = true
			cfg.L = 2
			return cfg
		}},
		{"corrupt campaign IC", func() BlackholeConfig {
			cfg := smallBlackhole()
			cfg.Campaign = &corrupt
			cfg.IC = true
			cfg.L = 1
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := legacyRunBlackhole(tc.cfg())
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			got, err := RunBlackhole(tc.cfg())
			if err != nil {
				t.Fatalf("spec: %v", err)
			}
			if got != want {
				t.Fatalf("spec path diverged from legacy oracle:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestScenarioMatchesLegacySensor does the same for the Fig. 8 harness.
func TestScenarioMatchesLegacySensor(t *testing.T) {
	small := func() SensorConfig {
		cfg := PaperSensorConfig()
		cfg.Nodes = 60
		cfg.SimTime = 120
		cfg.Seed = 9
		return cfg
	}
	cases := []struct {
		name string
		cfg  func() SensorConfig
	}{
		{"centralized with interference", func() SensorConfig {
			cfg := small()
			cfg.Fault = sensor.FaultInterference
			return cfg
		}},
		{"IC L=3 with stuck faults", func() SensorConfig {
			cfg := small()
			cfg.IC = true
			cfg.L = 3
			cfg.Fault = sensor.FaultStuckAtZero
			return cfg
		}},
		{"no target, uniform placement", func() SensorConfig {
			cfg := small()
			cfg.NoTarget = true
			cfg.UniformPlacement = true
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := legacyRunSensor(tc.cfg())
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			got, err := RunSensor(tc.cfg())
			if err != nil {
				t.Fatalf("spec: %v", err)
			}
			if got != want {
				t.Fatalf("spec path diverged from legacy oracle:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
