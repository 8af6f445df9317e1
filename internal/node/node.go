// Package node assembles the per-node component stack of the paper's
// architecture (Fig. 1): radio, MAC, single-hop link service, inner-circle
// interceptor, suspicions manager, secure topology service, and voting
// service — plus the shared network fabric (simulation kernel, radio
// channel, key material) that a simulated deployment needs.
package node

import (
	"fmt"
	"io"
	mrand "math/rand"
	"sync"

	"innercircle/internal/crypto/nsl"
	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/crypto/thresh"
	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/icnet"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/trace"
	"innercircle/internal/vote"
)

// Node is one assembled wireless node.
type Node struct {
	ID    link.NodeID
	Index int
	// K is the node's home kernel and Shard its index in the shard set (0
	// on a single-kernel network).
	K     *sim.Kernel
	Shard int
	MAC   *mac.MAC
	Link  *link.Service
	Meter *energy.Meter
	Mob   mobility.Model
	RNG   *sim.RNG

	// Inner-circle components; nil when the network is built without IC.
	Susp      *icnet.SuspicionManager
	Intercept *icnet.Interceptor
	STS       *sts.Service
	Vote      *vote.Service

	// Auth is the node's individual authenticator, shared by its topology
	// service (beacons) and its voting service (statistical values):
	// RSAAuth over the node's key pair when the network has node keys,
	// else SimAuth when beacons are authenticated, else nil.
	Auth sts.Auth

	handlers []func(link.Env) bool
}

// Handle appends a message handler; handlers run in registration order
// after the STS and voting services, and the first to return true consumes
// the envelope.
func (n *Node) Handle(fn func(link.Env) bool) {
	n.handlers = append(n.handlers, fn)
}

// dispatch routes an inbound envelope through the component stack.
func (n *Node) dispatch(e link.Env) {
	if n.STS != nil && n.STS.HandleEnv(e) {
		return
	}
	if n.Vote != nil && n.Vote.HandleEnv(e) {
		return
	}
	for _, h := range n.handlers {
		if h(e) {
			return
		}
	}
}

// Network is a simulated deployment.
type Network struct {
	K       *sim.Kernel
	Channel *radio.Channel
	Nodes   []*Node
	Ring    vote.PublicRing
	RNG     *sim.RNG
	// Dealer is the threshold-key authority the network was built with and
	// NodeKeys the per-node signer sets it produced (both nil/empty without
	// IC). Retained so membership transitions (Membership) can reshare and
	// refresh the ring after Build.
	Dealer   thresh.Dealer
	NodeKeys []vote.NodeKeys
	// DKGBlamed and DKGSilent record nodes excluded during dealerless
	// keygen (Config.DKG): blamed with proof of misbehaviour, or silent.
	// Build has already fed them to every node's suspicion manager.
	DKGBlamed []int
	DKGSilent []int
	// Set is the shard set driving a partitioned deployment (nil when the
	// network runs on a single kernel). K is then shard 0's kernel; every
	// node's K is its home shard's.
	Set *sim.ShardSet
	// Memos are the signature-verification memos of the voting services,
	// one per kernel and shared by every service on it (nil when IC is off;
	// a single-kernel network has exactly Memos[0]; index by Node.Shard).
	// The cache is unsynchronized, hence one per shard, and since it only
	// memoizes a pure function, per-shard caches cannot change results.
	Memos []*sigcache.Cache
	// BeaconMemos are the topology services' beacon memos, one per kernel
	// and shared by every service on it (nil unless beacons are
	// authenticated; index by Node.Shard). One memo type serves RSA
	// signatures and SimAuth MACs alike. They are apart from Memos: the
	// voting services' hit count is reported in the campaign tables, so the
	// far heavier beacon traffic must neither count into it nor evict its
	// entries.
	BeaconMemos []*sts.Memo
}

// Config describes a deployment to build.
type Config struct {
	// N is the number of nodes.
	N int
	// Seed drives every random stream in the network.
	Seed int64
	// Radio, MAC and Energy configure the lower layers.
	Radio  radio.Params
	MAC    mac.Params
	Energy energy.Params
	// Mobility yields node i's movement model; required.
	Mobility func(i int, rng *sim.RNG) mobility.Model

	// IC installs the inner-circle components (interceptor, suspicions
	// manager, voting service). STS runs in either mode when STS.Period
	// is set; the paper's "No IC" baselines leave STS zero and so run no
	// topology service.
	IC bool
	// STS configures the topology service. A zero Period disables STS
	// entirely.
	STS sts.Config
	// Vote configures the voting service (only used when IC is set).
	Vote vote.Config
	// MaxL bounds the dependability levels for which keys are dealt.
	MaxL int
	// Dealer provides threshold keys; nil selects thresh.SimDealer seeded
	// from Seed.
	Dealer thresh.Dealer
	// DKG establishes the level keys with the dealerless protocol
	// (Dealer.DKG) instead of the trusted dealer's Deal: the nodes run
	// qualification rounds, and misbehaving participants (DKGFaults,
	// keyed by 0-based node index) are excluded — blamed nodes enter every
	// other node's permanent suspect list, silent ones the temporary list.
	// A DKGFaults key that names no node fails Build.
	DKG       bool
	DKGFaults map[int]thresh.DKGFault
	// Keys overrides the per-node RSA key pairs. Required length N when
	// set. Nil draws key i from one fixed seeded stream (the same key for
	// node i in every network) when RSA material is needed (STS handshake,
	// statistical voting). Key material does affect traffic: the moduli's
	// bit lengths set signature wire sizes.
	Keys []*nsl.KeyPair
	// SigWireBytes is the emulated signature size for SimAuth/SimDealer
	// (e.g. 128 for "1024-bit keys"). Default 128.
	SigWireBytes int
	// Callbacks, when non-nil, is called for every node in node order, in
	// both modes, once every node's link, interceptor and STS exist and
	// before that node's voting service is built. What it returns is the
	// node's vote callbacks (ignored with IC off).
	Callbacks func(n *Node) vote.Callbacks
	// Shards partitions the deployment across that many kernels run under
	// conservative-lookahead synchronization (sim.ShardSet). 0 or 1 builds
	// the plain single-kernel network. Sharding requires static mobility
	// for every node and no Tracer (the tracer's tap is a single ordered
	// stream; interleaving it across shards would serialize them).
	Shards int
	// ShardOf maps a node's static position to its home shard in
	// [0, Shards); required when Shards > 1. Cross-shard radio traffic is
	// only sound between adjacent shard indices, so the mapping must be a
	// stripe partition at least one radio range wide per stripe (see
	// scenario.StripePartition).
	ShardOf func(geo.Point) int
	// ShardBorder reports whether a position lies within one radio range
	// of a stripe boundary; required when Shards > 1.
	ShardBorder func(geo.Point) bool

	// Tracer, when non-nil, taps every node's link traffic.
	Tracer *trace.Tracer
	// Crypto models signing/verification latency and energy (zero value:
	// instantaneous and free).
	Crypto vote.CryptoProfile
}

// Build draws keyBits-bit RSA node keys from the nodeKeySeed stream, and a
// temporary suspicion lasts tempSuspicion.
const (
	keyBits                    = 512
	nodeKeySeed                = 0x5EED0C
	tempSuspicion sim.Duration = 120
)

// keyCache holds the node keys drawn so far from the nodeKeySeed stream,
// and the stream where the last key left it: key i is the same whatever
// the seed, the network size or the order of earlier builds, and a network
// larger than any before it draws only the keys that are missing. The
// moduli's bit lengths set signature wire sizes, so runs reproduce only
// with reproducible keys. The mutex guards growth; networks only read.
var keyCache struct {
	sync.Mutex
	stream *mrand.Rand
	keys   []*nsl.KeyPair
}

// seededKeys returns the first n node keys of the nodeKeySeed stream.
func seededKeys(n int) ([]*nsl.KeyPair, error) {
	c := &keyCache
	c.Lock()
	defer c.Unlock()
	if c.stream == nil {
		c.stream = mrand.New(mrand.NewSource(nodeKeySeed))
	}
	keys, err := drawKeys(c.keys, n, keyBits, c.stream)
	if err != nil {
		// The stream stopped mid-key: start over next time.
		c.stream, c.keys = nil, nil
		return nil, err
	}
	c.keys = keys
	return keys[:n:n], nil
}

// GenerateKeySetSeeded creates n RSA key pairs from a seeded deterministic
// stream, so repeated processes derive identical key material, for callers
// that supply Config.Keys themselves. Simulation use only.
func GenerateKeySetSeeded(n, bits int, seed int64) ([]*nsl.KeyPair, error) {
	return drawKeys(make([]*nsl.KeyPair, 0, n), n, bits, mrand.New(mrand.NewSource(seed)))
}

// drawKeys appends bits-bit key pairs drawn from stream to keys until it
// holds n.
func drawKeys(keys []*nsl.KeyPair, n, bits int, stream io.Reader) ([]*nsl.KeyPair, error) {
	for len(keys) < n {
		kp, err := nsl.GenerateKeyPair(bits, stream)
		if err != nil {
			return nil, fmt.Errorf("node: generate key %d: %w", len(keys), err)
		}
		keys = append(keys, kp)
	}
	return keys, nil
}

// Build assembles the network. Nodes are created but protocol services are
// not started; call StartSTS (or start services individually) before Run.
func Build(cfg Config) (*Network, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("node: N must be >= 1")
	}
	if cfg.Mobility == nil {
		return nil, fmt.Errorf("node: mobility model constructor required")
	}
	if cfg.IC && cfg.STS.Period <= 0 {
		return nil, fmt.Errorf("node: IC mode requires a running STS (Period > 0)")
	}
	if cfg.SigWireBytes == 0 {
		cfg.SigWireBytes = 128
	}

	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	var set *sim.ShardSet
	var k *sim.Kernel
	var ch *radio.Channel
	if shards > 1 {
		if cfg.ShardOf == nil || cfg.ShardBorder == nil {
			return nil, fmt.Errorf("node: Shards=%d requires ShardOf and ShardBorder", shards)
		}
		if cfg.Tracer != nil {
			return nil, fmt.Errorf("node: tracing and sharding are mutually exclusive")
		}
		// The lookahead is the physical bound on how soon a transmission
		// can follow the event that decides to make it: every path to
		// radio.Send waits at least SIFS (ACK turnaround) or DIFS+backoff
		// (contention) first.
		lookahead := cfg.MAC.SIFS
		if cfg.MAC.DIFS < lookahead {
			lookahead = cfg.MAC.DIFS
		}
		if lookahead <= 0 {
			return nil, fmt.Errorf("node: sharding requires positive SIFS and DIFS (lookahead bound)")
		}
		set = sim.NewShardSet(shards, lookahead)
		k = set.Kernel(0)
		ch = radio.NewChannelSharded(set, cfg.Radio, func(p geo.Point) (int, bool) {
			return cfg.ShardOf(p), cfg.ShardBorder(p)
		})
		// A cross-shard message is a frame registration posted at the send
		// instant; the receiving side's only event chain starts when the
		// frame's airtime elapses, and every MAC frame carries at least the
		// header overhead on the air. Any transmission the message triggers
		// therefore waits the frame airtime plus the MAC turnaround — so the
		// message lookahead, the bound null messages propagate at, is the
		// base lookahead plus the minimum frame airtime.
		set.SetMsgLookahead(lookahead + ch.TxDuration(cfg.MAC.HeaderBytes))
	} else {
		k = sim.NewKernel()
		ch = radio.NewChannel(k, cfg.Radio)
	}
	rng := sim.NewRNG(cfg.Seed)
	if cfg.Tracer != nil {
		cfg.Tracer.SetClock(k.Now)
	}
	net := &Network{K: k, Channel: ch, RNG: rng, Set: set}

	needRSA := cfg.STS.Handshake || (cfg.IC && cfg.Vote.Mode == vote.Statistical)
	keys := cfg.Keys
	var dir nsl.DirectoryMap
	if needRSA && keys == nil {
		var err error
		keys, err = seededKeys(cfg.N)
		if err != nil {
			return nil, err
		}
	}
	if keys != nil {
		if len(keys) != cfg.N {
			return nil, fmt.Errorf("node: got %d keys for %d nodes", len(keys), cfg.N)
		}
		dir = make(nsl.DirectoryMap, len(keys))
		for i, kp := range keys {
			dir[int64(i)] = kp.Pub
		}
	}

	// Threshold key material and the voting services' memos (IC mode only).
	if cfg.IC {
		dealer := cfg.Dealer
		if dealer == nil {
			dealer = thresh.NewSimDealer([]byte(fmt.Sprintf("net-%d", cfg.Seed)), cfg.SigWireBytes)
		}
		maxL := cfg.MaxL
		if maxL == 0 {
			maxL = 10
		}
		if cfg.DKG {
			ring, nk, blamed, silent, err := vote.DKGRing(dealer, maxL, cfg.N, cfg.DKGFaults)
			if err != nil {
				return nil, fmt.Errorf("node: dealerless keygen: %w", err)
			}
			net.Ring = ring
			net.NodeKeys = nk
			net.DKGBlamed = blamed
			net.DKGSilent = silent
		} else {
			ring, nk, err := vote.DealRing(dealer, maxL, cfg.N)
			if err != nil {
				return nil, fmt.Errorf("node: deal threshold keys: %w", err)
			}
			net.Ring = ring
			net.NodeKeys = nk
		}
		net.Dealer = dealer
		// All checkers of a flooded vote message run at one virtual instant
		// or close to it, so the default capacity is ample.
		net.Memos = make([]*sigcache.Cache, shards)
		for s := range net.Memos {
			net.Memos[s] = sigcache.New(sigcache.DefaultCap)
		}
	}

	// Beacon authentication state shared by the topology services: one
	// beacon memo per shard and, without RSA keys, the SimAuth key table.
	var simKeys *sts.SimKeys
	if cfg.STS.Period > 0 && cfg.STS.Authenticate {
		net.BeaconMemos = make([]*sts.Memo, shards)
		for s := range net.BeaconMemos {
			net.BeaconMemos[s] = sts.NewMemo(cfg.N)
		}
		if keys == nil {
			simKeys = sts.NewSimKeys([]byte(fmt.Sprintf("sts-%d", cfg.Seed)), cfg.N)
		}
	}

	for i := 0; i < cfg.N; i++ {
		nodeRNG := rng.SplitN("node", i)
		mob := cfg.Mobility(i, nodeRNG.Split("mobility"))
		meter := energy.NewMeter(cfg.Energy)
		shard, nk := 0, k
		if set != nil {
			s, ok := mob.(mobility.Static)
			if !ok {
				return nil, fmt.Errorf("node %d: sharding requires static mobility, got %T", i, mob)
			}
			shard = cfg.ShardOf(geo.Point(s))
			nk = set.Kernel(shard)
		}
		m := mac.New(nk, ch, mob, meter, nodeRNG.Split("mac"), cfg.MAC)
		if set != nil && m.Transceiver().Border() {
			m.MarkBorder()
		}
		l := link.NewService(m)
		if cfg.Tracer != nil {
			cfg.Tracer.Attach(l)
		}
		nd := &Node{
			ID:    l.ID(),
			Index: i,
			K:     nk,
			Shard: shard,
			MAC:   m,
			Link:  l,
			Meter: meter,
			Mob:   mob,
			RNG:   nodeRNG,
		}
		if keys != nil {
			nd.Auth = sts.NewRSAAuth(keys[i], dir)
		} else if simKeys != nil {
			nd.Auth = sts.NewSimAuth(simKeys, nd.ID, cfg.SigWireBytes/2)
		}

		if cfg.IC {
			nd.Susp = icnet.NewSuspicionManager(nk, tempSuspicion)
			nd.Intercept = icnet.NewInterceptor(nd.Susp)
			l.AddFilter(nd.Intercept)
		}

		if cfg.STS.Period > 0 {
			stsDeps := sts.Deps{
				ID:   nd.ID,
				K:    nk,
				Link: l,
				RNG:  nodeRNG.Split("sts"),
			}
			if cfg.STS.Authenticate {
				stsDeps.Memo = net.BeaconMemos[shard]
				stsDeps.Auth = nd.Auth
			}
			if cfg.STS.Handshake {
				stsDeps.Party = nsl.NewParty(int64(i), keys[i], dir, nodeRNG.Split("nsl"))
			}
			svc, err := sts.New(cfg.STS, stsDeps)
			if err != nil {
				return nil, fmt.Errorf("node %d: sts: %w", i, err)
			}
			nd.STS = svc
		}

		nd.Link.OnRecv(nd.dispatch)
		net.Nodes = append(net.Nodes, nd)
	}

	// Second pass, node by node: the callbacks, which can close over the
	// assembled node, then (IC mode) the voting service they configure.
	for i, nd := range net.Nodes {
		var cbs vote.Callbacks
		if cfg.Callbacks != nil {
			cbs = cfg.Callbacks(nd)
		}
		if !cfg.IC {
			continue
		}
		vs, err := vote.New(cfg.Vote, vote.Deps{
			ID:     nd.ID,
			K:      nd.K,
			Link:   nd.Link,
			Topo:   nd.STS,
			Ring:   net.Ring,
			Keys:   net.NodeKeys[i],
			Susp:   nd.Susp,
			Auth:   nd.Auth,
			Crypto: cfg.Crypto,
			Energy: nd.Meter,
			Memo:   net.Memos[nd.Shard],
		}, cbs)
		if err != nil {
			return nil, fmt.Errorf("node %d: vote: %w", i, err)
		}
		nd.Vote = vs
		nd.Intercept.SetVerifier(vs.VerifierFor())
	}
	if cfg.IC {
		// Dealerless-keygen verdicts carry network-wide: a blame is backed
		// by an opened sub-share contradicting its broadcast commitment, a
		// proof any member can check, so every node records the suspicion —
		// the same treatment a corrupt partial signature earns. Silence
		// carries no proof of malice, so it only earns temporary suspicion.
		for _, nd := range net.Nodes {
			for _, b := range net.DKGBlamed {
				if b != nd.Index {
					nd.Susp.SuspectPermanent(link.NodeID(b), "dkg: sub-share contradicts commitment")
				}
			}
			for _, s := range net.DKGSilent {
				if s != nd.Index {
					nd.Susp.SuspectTemporary(link.NodeID(s), "dkg: no dealing received")
				}
			}
		}
	}
	return net, nil
}

// StartSTS starts every node's topology service.
func (net *Network) StartSTS() {
	for _, nd := range net.Nodes {
		if nd.STS != nil {
			nd.STS.Start()
		}
	}
}

// StartSTSJittered schedules every node's topology-service start at an
// independent uniform offset in [0, window), drawn from rng in node
// order. Staggered starts avoid the synchronized beacon collision storm
// a dense deployment suffers when every service fires at t=0.
func (net *Network) StartSTSJittered(rng *sim.RNG, window sim.Duration) {
	for _, nd := range net.Nodes {
		if nd.STS != nil {
			svc := nd.STS
			// Jitter values are drawn in node order from the shared stream
			// regardless of sharding, so the schedule is shard-invariant;
			// each start runs on its node's home kernel.
			nd.K.ScheduleFire(rng.Jitter(window), svc.Start)
		}
	}
}

// Run drives the simulation to the given virtual time; a sharded network's
// set runs on one executor slot, the calling goroutine (RunSlots).
func (net *Network) Run(until sim.Time) error { return net.RunSlots(until, 1) }

// RunSlots is Run with a sharded network's set driven on the given number
// of executor slots (sim.ShardSet.Run); a single-kernel network ignores it.
// Per-shard channel counters are folded into Channel.Stats once the run
// completes so harvest code sees whole-channel totals.
func (net *Network) RunSlots(until sim.Time, slots int) error {
	if net.Set != nil {
		if err := net.Set.Run(until, slots); err != nil {
			return err
		}
		net.Channel.MergeShardStats()
		return nil
	}
	return net.K.Run(until)
}

// TotalEnergy returns the summed energy consumption of all nodes at the
// current virtual time, in joules.
func (net *Network) TotalEnergy() float64 {
	var total float64
	for _, nd := range net.Nodes {
		total += nd.Meter.Consumed(net.K.Now())
	}
	return total
}
