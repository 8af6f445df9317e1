package main

import (
	"fmt"
	mrand "math/rand"
	"time"

	"innercircle/internal/aodv"
	"innercircle/internal/crypto/nsl"
	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/crypto/thresh"
	"innercircle/internal/diffusion"
	"innercircle/internal/energy"
	"innercircle/internal/experiment"
	"innercircle/internal/fusion"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/scenario"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// prober runs the per-layer probes: fixed-iteration loops that call only a
// layer's exported API, each wrapped in a span. Iteration counts are fixed
// (never time-based) so the deterministic counts repeat exactly.
type prober struct {
	log     *spanLog
	seed    int64
	smoke   bool
	metrics map[string]metric
}

func (p *prober) set(name string, v float64, unit string) {
	p.metrics[name] = metric{Value: v, Unit: unit}
}

// n is a probe's iteration count: full, or the minimum that still runs the
// code path in a smoke run.
func (p *prober) n(full int) int {
	if p.smoke {
		return max(1, full/50)
	}
	return full
}

// perCall times three batches of iters calls and returns the median
// batch's time per call.
func perCall(iters int, fn func()) time.Duration {
	batch := make([]float64, 3)
	for b := range batch {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		batch[b] = float64(time.Since(start)) / float64(iters)
	}
	return time.Duration(median(batch))
}

func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layer runs one layer's probe under a span; a probe failure aborts the
// traced run, since a missing metric would be read as a measurement.
func (p *prober) layer(name string, fn func() error) error {
	end := p.log.begin("probe/" + name)
	err := fn()
	end()
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

// probeMsg is a link message of a given wire size.
type probeMsg int

func (m probeMsg) Size() int { return int(m) }

// sensorRadio is the Fig. 8 / field_scale physical layer.
func sensorRadio() radio.Params { return radio.Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8} }

// Deployment geometries of the three in-process workloads.
func fig8Positions(rng *sim.RNG) []geo.Point {
	return mobility.GridPlacement(geo.Square(200), 100, 4, rng)
}

func fieldPositions(rng *sim.RNG) []geo.Point {
	side := experiment.ScaledSensorConfig(fieldNodes).Region
	return mobility.GridPlacement(geo.Square(side), fieldNodes, side/50, rng)
}

// fig7Waypoint is a Fig. 7 node: random waypoint at 10 m/s in 1000 m.
func fig7Waypoint(start geo.Point, rng *sim.RNG) mobility.Model {
	return mobility.NewWaypoint(mobility.WaypointConfig{Region: geo.Square(1000), MinSpeed: 10, MaxSpeed: 10}, start, rng)
}

func staticModels(pts []geo.Point) []mobility.Model {
	out := make([]mobility.Model, len(pts))
	for i, pt := range pts {
		out[i] = mobility.Static(pt)
	}
	return out
}

func (p *prober) probeSim() error {
	fn := func() {}
	k := sim.NewKernel()
	p.set("sim.fire_ns", ns(perCall(p.n(200000), func() {
		k.ScheduleFire(1, fn)
		k.Step()
	})), "ns")

	// 10 000 standing far-future timers: the regime a large field keeps
	// the queue in.
	k = sim.NewKernel()
	for i := 0; i < 10000; i++ {
		k.ScheduleFire(1e6+sim.Duration(i), fn)
	}
	p.set("sim.churn10k_ns", ns(perCall(p.n(200000), func() {
		k.ScheduleFire(1e-5, fn)
		k.Step()
	})), "ns")

	k = sim.NewKernel()
	tm := sim.NewTimer(k, fn)
	p.set("sim.timer_reset_ns", ns(perCall(p.n(200000), func() {
		tm.Reset(1)
		k.Step()
	})), "ns")

	k = sim.NewKernel()
	p.set("sim.cancel_ns", ns(perCall(p.n(200000), func() {
		k.CancelHandle(k.ScheduleFireHandle(1, fn))
	})), "ns")
	return nil
}

// radioSend times one frame transmission plus its delivery resolution.
func radioSend(params radio.Params, models []mobility.Model, iters int) (time.Duration, error) {
	k := sim.NewKernel()
	ch := radio.NewChannel(k, params)
	trs := make([]*radio.Transceiver, len(models))
	for i, m := range models {
		trs[i] = ch.Attach(m, nil, nil)
	}
	var err error
	i := 0
	d := perCall(iters, func() {
		if e := ch.Send(trs[i%len(trs)], radio.Frame{Bytes: 512}); e != nil {
			err = e
		}
		if e := k.RunAll(); e != nil {
			err = e
		}
		i++
	})
	return d, err
}

func (p *prober) probeRadio() error {
	rng := sim.NewRNG(p.seed)
	d, err := radioSend(sensorRadio(), staticModels(fig8Positions(rng.Split("fig8"))), p.n(20000))
	if err != nil {
		return err
	}
	p.set("radio.send_static100_us", us(d), "us")

	// Fig. 7: 50 waypoint nodes under the 250 m range.
	wrng := rng.Split("fig7")
	mobile := make([]mobility.Model, 50)
	for i, start := range mobility.UniformPlacement(geo.Square(1000), len(mobile), wrng) {
		mobile[i] = fig7Waypoint(start, wrng.SplitN("node", i))
	}
	if d, err = radioSend(radio.Default80211(), mobile, p.n(20000)); err != nil {
		return err
	}
	p.set("radio.send_mobile50_us", us(d), "us")

	if d, err = radioSend(sensorRadio(), staticModels(fieldPositions(rng.Split("field"))), p.n(20000)); err != nil {
		return err
	}
	p.set("radio.send_static4k_us", us(d), "us")
	return nil
}

// linkNet is a bare radio+MAC+link stack per position on one kernel.
type linkNet struct {
	k     *sim.Kernel
	links []*link.Service
}

func buildLinkNet(params radio.Params, pts []geo.Point, seed int64) *linkNet {
	k := sim.NewKernel()
	ch := radio.NewChannel(k, params)
	rng := sim.NewRNG(seed)
	net := &linkNet{k: k}
	for i, pt := range pts {
		m := mac.New(k, ch, mobility.Static(pt), nil, rng.SplitN("mac", i), mac.Default80211())
		net.links = append(net.links, link.NewService(m))
	}
	return net
}

func (p *prober) probeMAC() error {
	// Two nodes 100 m apart: one unicast, ACK included.
	net := buildLinkNet(radio.Default80211(), []geo.Point{{X: 0}, {X: 100}}, p.seed)
	got := 0
	net.links[1].OnRecv(func(link.Env) { got++ })
	var err error
	iters := p.n(20000)
	d := perCall(iters, func() {
		if e := net.links[0].Send(1, probeMsg(512)); e != nil {
			err = e
		}
		if e := net.k.RunAll(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	if got != 3*iters {
		return fmt.Errorf("unicast delivered %d of %d", got, 3*iters)
	}
	p.set("mac.unicast_us", us(d), "us")

	// 100 co-located nodes all broadcasting at one instant: contention,
	// backoff and collisions. Useful deliveries over attempted ones is a
	// count, exact for a seed.
	pts := make([]geo.Point, 100)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i%10) * 5, Y: float64(i/10) * 5}
	}
	net = buildLinkNet(radio.Default80211(), pts, p.seed)
	delivered := 0
	for _, l := range net.links {
		l.OnRecv(func(link.Env) { delivered++ })
	}
	rounds := p.n(100)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, l := range net.links {
			if err := l.Send(link.BroadcastID, probeMsg(64)); err != nil {
				return err
			}
		}
		if err := net.k.RunAll(); err != nil {
			return err
		}
	}
	sent := rounds * len(pts)
	p.set("mac.contend100_us", us(time.Since(start))/float64(sent), "us")
	p.set("mac.contend100_delivered_ratio", float64(delivered)/float64(sent*(len(pts)-1)), "ratio")
	return nil
}

// adhocSTS is the Fig. 7 topology-service configuration (keyed-MAC
// beacons, ∆STS = 2 s).
func adhocSTS() sts.Config {
	return sts.Config{Period: 0.9, Delta: 2, Authenticate: true, BeaconBaseBytes: 28}
}

func staticMobility(pts []geo.Point) func(int, *sim.RNG) mobility.Model {
	return func(i int, _ *sim.RNG) mobility.Model { return mobility.Static(pts[i]) }
}

func (p *prober) probeSTS() error {
	pts := fig8Positions(sim.NewRNG(p.seed).Split("sts"))
	net, err := node.Build(node.Config{
		N: len(pts), Seed: p.seed, Radio: sensorRadio(), MAC: mac.Default80211(), Energy: energy.NS2Default(),
		Mobility: staticMobility(pts), IC: true, STS: adhocSTS(), MaxL: 2,
		Vote: vote.Config{Mode: vote.Deterministic, L: 1, RoundTimeout: 0.15, Retries: 2},
	})
	if err != nil {
		return err
	}
	net.StartSTS()
	const simSeconds = 10
	start := time.Now()
	if err := net.Run(simSeconds); err != nil {
		return err
	}
	p.set("sts.field100_ms_per_sim_s", ms(time.Since(start))/simSeconds, "ms/s")
	var beacons uint64
	for _, nd := range net.Nodes {
		beacons += nd.STS.Stats.BeaconsSent
	}
	p.set("sts.beacons", float64(beacons), "count")
	return nil
}

// seededRand is a deterministic entropy source for key generation, so a
// probe's inputs come from the seed like everything else.
func seededRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

func (p *prober) probeCrypto() error {
	msg := []byte("innercircle bench message")
	type scheme struct {
		gk      thresh.GroupKey
		signers []thresh.Signer
		sig     thresh.Signature
		parts   []thresh.Partial
	}
	deal := func(d thresh.Dealer) (scheme, error) {
		gk, signers, err := d.Deal(2, 5)
		if err != nil {
			return scheme{}, err
		}
		s := scheme{gk: gk, signers: signers}
		for _, sg := range signers[:3] {
			part, err := sg.PartialSign(msg)
			if err != nil {
				return scheme{}, err
			}
			s.parts = append(s.parts, part)
		}
		s.sig, err = gk.Combine(msg, s.parts)
		return s, err
	}
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	simS, e := deal(thresh.NewSimDealer([]byte(fmt.Sprintf("bench-%d", p.seed)), 128))
	if e != nil {
		return e
	}
	p.set("thresh.sim_sign_us", us(perCall(p.n(20000), func() {
		_, e := simS.signers[0].PartialSign(msg)
		keep(e)
	})), "us")
	p.set("thresh.sim_verify_us", us(perCall(p.n(20000), func() { keep(simS.gk.Verify(msg, simS.sig)) })), "us")

	rsaDealer := &thresh.RSADealer{Bits: 1024, Rand: seededRand(p.seed)}
	rsaS, e := deal(rsaDealer)
	if e != nil {
		return e
	}
	p.set("thresh.rsa1024_partial_us", us(perCall(p.n(200), func() {
		_, e := rsaS.signers[0].PartialSign(msg)
		keep(e)
	})), "us")
	p.set("thresh.rsa1024_combine_us", us(perCall(p.n(500), func() {
		_, e := rsaS.gk.Combine(msg, rsaS.parts)
		keep(e)
	})), "us")
	p.set("thresh.rsa1024_verify_us", us(perCall(p.n(2000), func() { keep(rsaS.gk.Verify(msg, rsaS.sig)) })), "us")
	// Alternate 2-of-5 and 1-of-3 so shrinking and growing are both timed.
	i := 0
	p.set("thresh.reshare_us", us(perCall(p.n(2000), func() {
		k, n := 1, 3
		if i%2 == 1 {
			k, n = 2, 5
		}
		_, e := rsaDealer.Reshare(rsaS.gk, k, n)
		keep(e)
		i++
	})), "us")
	dkg := make([]float64, max(3, p.n(7)))
	for i := range dkg {
		start := time.Now()
		_, e := rsaDealer.DKG(thresh.DKGConfig{K: 2, N: 5})
		keep(e)
		dkg[i] = ms(time.Since(start))
	}
	p.set("thresh.dkg_rsa_ms", median(dkg), "ms")

	keygen := make([]float64, max(3, p.n(21)))
	var kp *nsl.KeyPair
	krand := seededRand(p.seed)
	for i := range keygen {
		start := time.Now()
		kp, e = nsl.GenerateKeyPair(512, krand)
		keep(e)
		keygen[i] = ms(time.Since(start))
	}
	if err != nil {
		return err
	}
	p.set("nsl.keygen512_ms", median(keygen), "ms")
	var sig []byte
	p.set("nsl.sign512_us", us(perCall(p.n(2000), func() { sig = kp.Sign(msg) })), "us")
	p.set("nsl.verify512_us", us(perCall(p.n(20000), func() { keep(nsl.Verify(kp.Pub, msg, sig)) })), "us")

	// Memo lookups: a hit on a resident key, and a miss followed by the Put
	// a real verification would do, cycling past capacity so the miss path
	// includes eviction.
	cache := sigcache.New(sigcache.DefaultCap)
	keys := make([]sigcache.Key, 4*sigcache.DefaultCap)
	for i := range keys {
		keys[i] = sigcache.Key{Kind: sigcache.KindNSL, Scope: kp.Pub, Sum: sigcache.HashParts(msg, []byte{byte(i), byte(i >> 8)})}
	}
	cache.Put(keys[0], sigcache.Entry{})
	hits := 0
	p.set("sigcache.hit_ns", ns(perCall(p.n(200000), func() {
		if _, ok := cache.Get(keys[0]); ok {
			hits++
		}
	})), "ns")
	if hits == 0 {
		return fmt.Errorf("sigcache never hit")
	}
	i = 1
	p.set("sigcache.miss_ns", ns(perCall(p.n(200000), func() {
		k := keys[1+i%(len(keys)-1)]
		if _, ok := cache.Get(k); !ok {
			cache.Put(k, sigcache.Entry{})
		}
		i++
	})), "ns")
	return err
}

// voteRounds builds the 5-node cross (a centre with four neighbours, all in
// range), lets STS converge, then times rounds proposed by the centre, each
// run for half a simulated second. It returns host time per round and the
// network for its counters. The agreed message is an unacknowledged
// broadcast, and about one round in five thousand loses one member's copy
// on the air, so a round must reach agreement and the members together must
// see at least 19 in 20 of the agreed messages.
func (p *prober) voteRounds(cfg vote.Config, dealer thresh.Dealer, keys []*nsl.KeyPair, rounds int) (time.Duration, *node.Network, error) {
	pts := []geo.Point{{X: 100, Y: 100}, {X: 0, Y: 100}, {X: 200, Y: 100}, {X: 100, Y: 0}, {X: 100, Y: 200}}
	agreed := 0
	net, err := node.Build(node.Config{
		N: len(pts), Seed: p.seed, Radio: radio.Default80211(), MAC: mac.Default80211(), Energy: energy.NS2Default(),
		Mobility: staticMobility(pts), IC: true, STS: adhocSTS(), Vote: cfg, MaxL: 2, Dealer: dealer, Keys: keys,
		Callbacks: func(*node.Node) vote.Callbacks {
			return vote.Callbacks{
				Check:      func(link.NodeID, []byte) bool { return true },
				LocalValue: func(link.NodeID, []byte) ([]byte, bool) { return []byte{42}, true },
				Fuse:       func(_ link.NodeID, values [][]byte) []byte { return values[0] },
				OnAgreed:   func(vote.AgreedMsg) { agreed++ },
			}
		},
	})
	if err != nil {
		return 0, nil, err
	}
	net.StartSTS()
	if err := net.Run(4); err != nil {
		return 0, nil, err
	}
	var total time.Duration
	missed := 0
	for r := 0; r < rounds; r++ {
		agreed = 0
		start := time.Now()
		if err := net.Nodes[0].Vote.Propose([]byte{byte(r), byte(r >> 8)}); err != nil {
			return 0, nil, err
		}
		if err := net.Run(net.K.Now() + 0.5); err != nil {
			return 0, nil, err
		}
		total += time.Since(start)
		if agreed == 0 {
			return 0, nil, fmt.Errorf("%v round %d: no agreement", cfg.Mode, r)
		}
		missed += len(pts) - agreed
	}
	if 20*missed > rounds*len(pts) {
		return 0, nil, fmt.Errorf("%v: members missed %d of %d agreed messages", cfg.Mode, missed, rounds*len(pts))
	}
	return total / time.Duration(rounds), net, nil
}

func (p *prober) probeVote() error {
	det := vote.Config{Mode: vote.Deterministic, L: 2, RoundTimeout: 0.15, Retries: 2}
	d, net, err := p.voteRounds(det, nil, nil, p.n(200))
	if err != nil {
		return err
	}
	p.set("vote.det_round_sim_ms", ms(d), "ms")
	var hits, misses uint64
	for _, nd := range net.Nodes {
		hits += nd.Vote.Stats.MemoHits
		misses += nd.Vote.Stats.MemoMisses
	}
	if hits+misses == 0 {
		return fmt.Errorf("vote memo saw no lookups")
	}
	p.set("vote.memo_hit_ratio", float64(hits)/float64(hits+misses), "ratio")

	if d, _, err = p.voteRounds(det, &thresh.RSADealer{Bits: 1024, Rand: seededRand(p.seed)}, nil, p.n(50)); err != nil {
		return err
	}
	p.set("vote.det_round_rsa_ms", ms(d), "ms")

	keys, err := node.GenerateKeySetSeeded(5, 512, p.seed)
	if err != nil {
		return err
	}
	stat := vote.Config{Mode: vote.Statistical, L: 2, RoundTimeout: 0.5, Retries: 1}
	if d, _, err = p.voteRounds(stat, nil, keys, p.n(100)); err != nil {
		return err
	}
	p.set("vote.stat_round_sim_ms", ms(d), "ms")
	return nil
}

func (p *prober) probeFusion() error {
	rng := sim.NewRNG(p.seed)
	points := make([]fusion.Vec, 15)
	for i := range points {
		points[i] = fusion.V2(rng.NormFloat64(), rng.NormFloat64())
	}
	points[14] = fusion.V2(50, 50)
	var err error
	p.set("fusion.ftcluster15_us", us(perCall(p.n(20000), func() {
		if _, e := fusion.FTCluster(points, 4); e != nil {
			err = e
		}
	})), "us")
	p.set("fusion.ftmean15_us", us(perCall(p.n(20000), func() {
		if _, e := fusion.FTMean(points, 3); e != nil {
			err = e
		}
	})), "us")
	target := geo.Point{X: 100, Y: 100}
	anchors := mobility.UniformPlacement(geo.Square(200), 10, rng)
	dists := make([]float64, len(anchors))
	for i, a := range anchors {
		dists[i] = a.Dist(target)
	}
	estimates := 0
	p.set("fusion.trilaterate_all10_us", us(perCall(p.n(5000), func() {
		estimates = len(fusion.TrilaterateAll(anchors, dists, 0))
	})), "us")
	if estimates == 0 {
		return fmt.Errorf("trilateration produced no estimate")
	}
	return err
}

func (p *prober) probeAODV() error {
	// 7×7 static grid, 200 m pitch under a 250 m range: neighbours are the
	// four grid-adjacent nodes, corner to corner is 12 hops.
	const side, hops = 7, 12
	pts := make([]geo.Point, side*side)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i%side) * 200, Y: float64(i/side) * 200}
	}
	dst := link.NodeID(len(pts) - 1)
	build := func(seed int64) (*linkNet, []*aodv.Router, *int, error) {
		net := buildLinkNet(radio.Default80211(), pts, seed)
		rng := sim.NewRNG(seed)
		routers := make([]*aodv.Router, len(pts))
		delivered := new(int)
		for i, l := range net.links {
			r, err := aodv.New(aodv.DefaultConfig(), aodv.Deps{ID: l.ID(), K: net.k, Link: l, RNG: rng.SplitN("aodv", i)})
			if err != nil {
				return nil, nil, nil, err
			}
			if l.ID() == dst {
				r.OnDeliver(func(aodv.Data) { *delivered++ })
			}
			l.OnRecv(func(e link.Env) { r.HandleEnv(e) })
			routers[i] = r
		}
		return net, routers, delivered, nil
	}

	// A flood over 49 contending nodes can lose every RREQ copy to
	// collisions; such a discovery retries and may still fail. Both kinds
	// are timed (a sweep pays for both), but most must succeed.
	discoveries := max(3, p.n(30))
	times := make([]float64, discoveries)
	var rreqs uint64
	found := 0
	for i := range times {
		net, routers, delivered, err := build(p.seed + int64(i))
		if err != nil {
			return err
		}
		start := time.Now()
		if err := routers[0].Send(dst, i, 512); err != nil {
			return err
		}
		if err := net.k.Run(5); err != nil {
			return err
		}
		times[i] = ms(time.Since(start))
		found += *delivered
		for _, r := range routers {
			rreqs += r.Stats.RreqOriginated + r.Stats.RreqForwarded
		}
	}
	if 2*found < discoveries {
		return fmt.Errorf("only %d of %d discoveries delivered", found, discoveries)
	}
	p.set("aodv.discovery_ms", median(times), "ms")
	p.set("aodv.rreq_per_discovery", float64(rreqs)/float64(discoveries), "count")

	// Data over the established route: host time per forwarded hop. About
	// one seed in forty loses the discovery flood itself (above), so the
	// route is built on the first of a few consecutive seeds that finds one.
	var (
		net       *linkNet
		routers   []*aodv.Router
		delivered *int
	)
	const routeTries = 8
	for try := 0; ; try++ {
		var err error
		if net, routers, delivered, err = build(p.seed + int64(try)); err != nil {
			return err
		}
		if err := routers[0].Send(dst, 0, 512); err != nil {
			return err
		}
		if err := net.k.Run(5); err != nil {
			return err
		}
		if *delivered == 1 {
			break
		}
		if try == routeTries-1 {
			return fmt.Errorf("no route for the data probe in %d seeds", routeTries)
		}
	}
	packets := p.n(2000)
	*delivered = 0
	start := time.Now()
	for i := 0; i < packets; i++ {
		if err := routers[0].Send(dst, i, 512); err != nil {
			return err
		}
		if err := net.k.Run(net.k.Now() + 0.1); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	if *delivered != packets {
		return fmt.Errorf("data: delivered %d of %d", *delivered, packets)
	}
	p.set("aodv.data_hop_us", us(elapsed)/float64(packets*hops), "us")
	return nil
}

func (p *prober) probeDiffusion() error {
	// The Fig. 8 deployment: node 0 is the base station at the centre.
	pts := fig8Positions(sim.NewRNG(p.seed).Split("diffusion"))
	pts[0] = geo.Square(200).Center()
	rounds := max(3, p.n(20))
	flood := make([]float64, rounds)
	var dataTime time.Duration
	var dataSent int
	for r := range flood {
		net := buildLinkNet(sensorRadio(), pts, p.seed+int64(r))
		rng := sim.NewRNG(p.seed + int64(r))
		svcs := make([]*diffusion.Service, len(pts))
		delivered := 0
		for i, l := range net.links {
			svc, err := diffusion.New(diffusion.DefaultConfig(), diffusion.Deps{ID: l.ID(), K: net.k, Link: l, RNG: rng.SplitN("diff", i)})
			if err != nil {
				return err
			}
			l.OnRecv(func(e link.Env) { svc.HandleEnv(e) })
			svcs[i] = svc
		}
		svcs[0].SetSink(true)
		svcs[0].OnDeliver(func(link.NodeID, int, link.Message) { delivered++ })
		start := time.Now()
		svcs[0].Start()
		if err := net.k.Run(2); err != nil {
			return err
		}
		flood[r] = ms(time.Since(start))

		// One report per sensor the flood reached (a single flood loses
		// some to collisions), spaced so the MAC is not the subject.
		start = time.Now()
		for _, svc := range svcs[1:] {
			if _, ok := svc.HopsToSink(); !ok {
				continue
			}
			if err := svc.Send(probeMsg(64)); err != nil {
				return err
			}
			if err := net.k.Run(net.k.Now() + 0.05); err != nil {
				return err
			}
			dataSent++
		}
		dataTime += time.Since(start)
		if delivered == 0 {
			return fmt.Errorf("diffusion delivered nothing to the sink")
		}
	}
	p.set("diffusion.flood100_ms", median(flood), "ms")
	p.set("diffusion.data_us", us(dataTime)/float64(dataSent), "us")
	return nil
}

func (p *prober) probeNode() error {
	builds := max(3, p.n(7))
	timeBuild := func(cfg func(i int) node.Config) (float64, error) {
		times := make([]float64, builds)
		for i := range times {
			start := time.Now()
			if _, err := node.Build(cfg(i)); err != nil {
				return 0, err
			}
			times[i] = ms(time.Since(start))
		}
		return median(times), nil
	}
	base := func(n int, seed int64, r radio.Params) node.Config {
		return node.Config{N: n, Seed: seed, Radio: r, MAC: mac.Default80211(), Energy: energy.NS2Default()}
	}

	// Fig. 7 without IC: 50 waypoint nodes, no topology service.
	v, err := timeBuild(func(i int) node.Config {
		cfg := base(50, p.seed+int64(i), radio.Default80211())
		cfg.Mobility = func(_ int, rng *sim.RNG) mobility.Model {
			return fig7Waypoint(geo.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)}, rng)
		}
		return cfg
	})
	if err != nil {
		return err
	}
	p.set("node.build50_ms", v, "ms")

	start := time.Now()
	keys, err := node.GenerateKeySetSeeded(100, 512, p.seed)
	if err != nil {
		return err
	}
	p.set("node.keyset100_ms", ms(time.Since(start)), "ms")

	// Fig. 8 with IC: 100 static nodes, statistical voting, keys dealt for
	// seven levels, NSL keys supplied (as the replicas' cached set is).
	pts := fig8Positions(sim.NewRNG(p.seed).Split("node"))
	v, err = timeBuild(func(i int) node.Config {
		cfg := base(len(pts), p.seed+int64(i), sensorRadio())
		cfg.Mobility = staticMobility(pts)
		cfg.IC = true
		cfg.STS = sts.Config{Period: 45, Delta: 100, Authenticate: true, BeaconBaseBytes: 28}
		cfg.Vote = vote.Config{Mode: vote.Statistical, L: 7, RoundTimeout: 0.5, Retries: 1}
		cfg.MaxL = 7
		cfg.Keys = keys
		cfg.SigWireBytes = 64
		return cfg
	})
	if err != nil {
		return err
	}
	p.set("node.build100_ic_ms", v, "ms")

	field := fieldPositions(sim.NewRNG(p.seed).Split("field"))
	v, err = timeBuild(func(i int) node.Config {
		cfg := base(len(field), p.seed+int64(i), sensorRadio())
		cfg.Mobility = staticMobility(field)
		return cfg
	})
	if err != nil {
		return err
	}
	p.set("node.build4000_ms", v, "ms")
	return nil
}

func (p *prober) probeScenario() error {
	field := fieldPositions(sim.NewRNG(p.seed).Split("field"))
	effective := 0
	p.set("scenario.partition4000_us", us(perCall(p.n(2000), func() {
		_, _, effective = scenario.StripePartition(field, sensorRadio().Range, fieldShards)
	})), "us")
	if effective != fieldShards {
		return fmt.Errorf("partition gave %d shards, want %d", effective, fieldShards)
	}
	return nil
}

// probeLayers runs every probe that needs nothing but the layer itself;
// the experiment, artifact and serve probes (which reuse real results) and
// the trace pair live in traced.go.
func (p *prober) probeLayers() error {
	for _, l := range []struct {
		name string
		fn   func() error
	}{
		{"sim", p.probeSim},
		{"radio", p.probeRadio},
		{"mac", p.probeMAC},
		{"sts", p.probeSTS},
		{"crypto", p.probeCrypto},
		{"vote", p.probeVote},
		{"fusion", p.probeFusion},
		{"aodv", p.probeAODV},
		{"diffusion", p.probeDiffusion},
		{"node", p.probeNode},
		{"scenario", p.probeScenario},
	} {
		if err := p.layer(l.name, l.fn); err != nil {
			return err
		}
	}
	return nil
}
