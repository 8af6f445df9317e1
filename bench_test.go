// The ablations that have no other home: A3 (FT-cluster against the
// fault-tolerant mean), A6 (two-hop circles) and A7 (the Crypto-Processor
// profile) report model quantities — estimation error, wire bytes,
// virtual latency and energy — through b.ReportMetric, which no sweep
// table and no scripts/bench probe carries. Everything else in DESIGN.md
// §3's experiment index is a table cmd/icsweep prints (EXPERIMENTS.md has
// the command per figure), and wall-clock cost is scripts/bench's record,
// BENCHMARK.json.
//
//	go test -run '^$' -bench Ablation -benchtime=1x
package innercircle_test

import (
	"fmt"
	"math"
	"testing"

	ic "innercircle"
)

// BenchmarkAblationFusion quantifies the design choice behind §4.3: the
// FT-cluster algorithm versus the classic fault-tolerant mean, across
// fault counts, on synthetic observations (N = 10, σ = 1, faulty values
// offset by 50σ). Reported metrics are mean absolute estimation errors.
func BenchmarkAblationFusion(b *testing.B) {
	rng := ic.NewRNG(42)
	const n, trials = 10, 500
	for i := 0; i < b.N; i++ {
		for _, f := range []int{0, 1, 2, 3} {
			var errCluster, errMean float64
			for trial := 0; trial < trials; trial++ {
				points := make([]ic.Vec, n)
				for j := 0; j < n-f; j++ {
					points[j] = ic.Vec{5 + rng.NormFloat64()}
				}
				for j := n - f; j < n; j++ {
					points[j] = ic.Vec{5 + 50 + rng.NormFloat64()}
				}
				res, err := ic.FTCluster(points, 4)
				if err != nil {
					b.Fatal(err)
				}
				errCluster += math.Abs(res.Estimate[0] - 5)
				m, err := ic.FTMean(points, 3)
				if err != nil {
					b.Fatal(err)
				}
				errMean += math.Abs(m[0] - 5)
			}
			b.ReportMetric(errCluster/trials, fmt.Sprintf("cluster_f%d_err", f))
			b.ReportMetric(errMean/trials, fmt.Sprintf("ftmean_f%d_err", f))
		}
	}
}

// BenchmarkAblationTwoHop quantifies the §3 trade-off of widening inner
// circles to two hops: wire bytes per completed voting round at L=1
// (one-hop) vs L=2 (possible only with the two-hop extension) on a sparse
// line topology.
func BenchmarkAblationTwoHop(b *testing.B) {
	round := func(twoHop bool, level int) (float64, error) {
		positions := []ic.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
		tr := ic.NewTracer(0)
		stsCfg := ic.DefaultSTS()
		stsCfg.Handshake = false
		agreed := 0
		cfg := ic.NetworkConfig{
			N:      len(positions),
			Seed:   5,
			Radio:  ic.Default80211Radio(),
			MAC:    ic.DefaultMAC(),
			Energy: ic.NS2Energy(),
			Mobility: func(i int, _ *ic.RNG) ic.MobilityModel {
				return ic.Static(positions[i])
			},
			IC:     true,
			STS:    stsCfg,
			Vote:   ic.VoteConfig{Mode: ic.Deterministic, L: level, RoundTimeout: 0.3, Retries: 2, TwoHop: twoHop},
			Tracer: tr,
			Callbacks: func(n *ic.Node) ic.VoteCallbacks {
				return ic.VoteCallbacks{
					Check:    func(ic.NodeID, []byte) bool { return true },
					OnAgreed: func(ic.AgreedMsg) { agreed++ },
				}
			},
		}
		net, err := ic.BuildNetwork(cfg)
		if err != nil {
			return 0, err
		}
		net.StartSTS()
		if err := net.Run(4); err != nil {
			return 0, err
		}
		before := voteBytes(tr)
		if err := net.Nodes[0].Vote.Propose([]byte("ablation")); err != nil {
			return 0, err
		}
		if err := net.Run(8); err != nil {
			return 0, err
		}
		if agreed == 0 {
			return 0, fmt.Errorf("round did not complete (twoHop=%v L=%d)", twoHop, level)
		}
		return voteBytes(tr) - before, nil
	}
	for i := 0; i < b.N; i++ {
		oneHop, err := round(false, 1)
		if err != nil {
			b.Fatal(err)
		}
		twoHop, err := round(true, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(oneHop, "onehop_L1_B_per_round")
		b.ReportMetric(twoHop, "twohop_L2_B_per_round")
	}
}

// voteBytes sums the tracer's transmitted bytes for voting message types.
func voteBytes(tr *ic.Tracer) float64 {
	var total float64
	for name, n := range tr.Bytes() {
		if len(name) >= 5 && name[:5] == "vote." {
			total += float64(n)
		}
	}
	return total
}

// BenchmarkAblationCryptoProcessor quantifies the rationale for the
// paper's Crypto-Processor hardware module: per-round latency and crypto
// energy of the voting protocol when threshold-RSA operations run in
// software on an embedded CPU versus on the dedicated processor.
func BenchmarkAblationCryptoProcessor(b *testing.B) {
	run := func(profile ic.CryptoProfile) (latency, joules float64, err error) {
		positions := []ic.Point{
			{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 0, Y: 200}, {X: 150, Y: 150},
		}
		stsCfg := ic.DefaultSTS()
		stsCfg.Handshake = false
		done := ic.Time(0)
		cfg := ic.NetworkConfig{
			N:      len(positions),
			Seed:   9,
			Radio:  ic.Default80211Radio(),
			MAC:    ic.DefaultMAC(),
			Energy: ic.NS2Energy(),
			Mobility: func(i int, _ *ic.RNG) ic.MobilityModel {
				return ic.Static(positions[i])
			},
			IC:     true,
			STS:    stsCfg,
			Vote:   ic.VoteConfig{Mode: ic.Deterministic, L: 2, RoundTimeout: 1, Retries: 2},
			Crypto: profile,
		}
		var net *ic.Network
		cfg.Callbacks = func(n *ic.Node) ic.VoteCallbacks {
			return ic.VoteCallbacks{
				Check: func(ic.NodeID, []byte) bool { return true },
				OnAgreed: func(ic.AgreedMsg) {
					if done == 0 {
						done = net.K.Now()
					}
				},
			}
		}
		net, err = ic.BuildNetwork(cfg)
		if err != nil {
			return 0, 0, err
		}
		net.StartSTS()
		if err := net.Run(4); err != nil {
			return 0, 0, err
		}
		idleBaseline := net.TotalEnergy()
		start := net.K.Now()
		if err := net.Nodes[0].Vote.Propose([]byte("crypto ablation")); err != nil {
			return 0, 0, err
		}
		if err := net.Run(8); err != nil {
			return 0, 0, err
		}
		if done == 0 {
			return 0, 0, fmt.Errorf("round did not complete")
		}
		return float64(done - start), net.TotalEnergy() - idleBaseline, nil
	}
	for i := 0; i < b.N; i++ {
		swLat, swJ, err := run(ic.SoftwareCrypto())
		if err != nil {
			b.Fatal(err)
		}
		hwLat, hwJ, err := run(ic.HardwareCrypto())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(swLat*1000, "sw_round_ms")
		b.ReportMetric(hwLat*1000, "hw_round_ms")
		b.ReportMetric(swJ*1000, "sw_round_mJ")
		b.ReportMetric(hwJ*1000, "hw_round_mJ")
	}
}
