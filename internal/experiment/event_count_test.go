package experiment

import (
	"testing"

	"innercircle/internal/node"
	"innercircle/internal/scenario"
	"innercircle/internal/vote"
)

// netProbe is a no-op scenario component that keeps the replica's network,
// so a test can read the kernels' event counts after scenario.Run returns.
type netProbe struct{ net *node.Network }

func (p *netProbe) Wire(env *scenario.Env)                           { p.net = env.Net }
func (p *netProbe) Attach(*scenario.Env, *node.Node) *vote.Callbacks { return nil }

// runProbed runs spec with a probe attached and returns the replica's
// executed shard count and its network.
func runProbed(t *testing.T, spec *scenario.Spec) (shards int, net *node.Network) {
	t.Helper()
	probe := &netProbe{}
	spec.Stack.Components = append(spec.Stack.Components, probe)
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Shards, probe.net
}

// runCounted runs spec with a probe attached and returns the replica's
// executed shard count, its kernel events (Processed() on one kernel, the
// sum of ShardUtil.Events across a shard set) and the overheard arrivals
// its channel registered.
func runCounted(t *testing.T, spec *scenario.Spec) (shards int, events, overheard uint64) {
	t.Helper()
	shards, net := runProbed(t, spec)
	overheard = net.Channel.Stats.FramesOverheard
	if net.Set == nil {
		return shards, net.K.Processed(), overheard
	}
	for _, u := range net.Set.Utilization() {
		events += u.Events
	}
	return shards, events, overheard
}

// TestReplicaEventCounts pins the number of kernel events one short Fig. 7
// replica and one 400-node sensor replica execute, the sensor replica on
// one kernel and on two shards at two executor slots (the sum of
// ShardUtil.Events). A radio reception is one event however the kernel
// queues it, so the sensor counts are the ones commit
// 99f6d138a23bad7653348052bcf7d942ed46609c produced, where every reception
// was its own queue entry; any change to how events are counted or batched
// shows here. The sensor replicas send only broadcasts, so no MAC there
// overhears a frame. The Fig. 7 replica's MACs overhear every unicast data
// frame and ACK addressed to a neighbour, and an overheard arrival is no
// event: its count is that commit's 197454 less the overheard arrivals that
// ended within the 30 s run, each of which was an event there.
func TestReplicaEventCounts(t *testing.T) {
	t.Run("fig7", func(t *testing.T) {
		cfg := PaperBlackholeConfig()
		cfg.IC = true
		cfg.Malicious = 2
		cfg.SimTime = 30
		cfg.Seed = 1
		const (
			want          = 93900
			wantOverheard = 103562
			// Overheard arrivals registered in the run that end after 30 s:
			// their events never ran in the old count either.
			endAfterRun  = 8
			perReception = 197454
		)
		_, got, overheard := runCounted(t, blackholeSpec(cfg))
		if got != want || overheard != wantOverheard {
			t.Errorf("executed %d events and overheard %d arrivals, want %d and %d", got, overheard, want, wantOverheard)
		}
		if got+overheard-endAfterRun != perReception {
			t.Errorf("%d events + %d overheard arrivals ended in the run = %d, want the per-reception count %d",
				got, overheard-endAfterRun, got+overheard-endAfterRun, perReception)
		}
	})
	for _, tc := range []struct {
		name   string
		shards int
		want   uint64
	}{
		{"sensor400", 1, 180818},
		{"sensor400-shards2", 2, 188177},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, 2)
			cfg := ScaledSensorConfig(400)
			cfg.Seed = 1
			cfg.Shards = tc.shards
			spec, _, err := sensorSpec(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shards, got, overheard := runCounted(t, spec)
			if shards != tc.shards {
				t.Fatalf("replica executed on %d shards, want %d", shards, tc.shards)
			}
			if got != tc.want || overheard != 0 {
				t.Errorf("executed %d events and overheard %d arrivals, want %d and none", got, overheard, tc.want)
			}
		})
	}
}

// TestReplicaBeaconMemoCounts pins how the 30 s Fig. 7 replica of
// TestReplicaEventCounts checks its SimAuth beacon MACs: the checks its
// topology services answered from their shard's memo and the MACs they
// computed. Every receiver of one broadcast checks the same bytes, so at
// most one MAC is computed per beacon sent.
func TestReplicaBeaconMemoCounts(t *testing.T) {
	cfg := PaperBlackholeConfig()
	cfg.IC = true
	cfg.Malicious = 2
	cfg.SimTime = 30
	cfg.Seed = 1
	const wantHits, wantMisses = 12373, 1586
	_, net := runProbed(t, blackholeSpec(cfg))
	var hits, misses, sent uint64
	for _, nd := range net.Nodes {
		hits += nd.STS.Stats.VerifyMemoHits
		misses += nd.STS.Stats.VerifyMemoMisses
		sent += nd.STS.Stats.BeaconsSent
	}
	if hits != wantHits || misses != wantMisses {
		t.Errorf("%d beacon checks answered from the memo and %d MACs computed, want %d and %d", hits, misses, wantHits, wantMisses)
	}
	if misses > sent {
		t.Errorf("%d MACs computed for %d beacons sent", misses, sent)
	}
	t.Logf("%d beacons sent, %d checked: %d MACs computed", sent, hits+misses, misses)
}

// TestSensorReplicaBeaconMemoCounts pins the same counts for one Fig. 8
// replica (IC, L=3, seed 1), whose beacons carry RSA signatures: every
// receiver of a broadcast on the static field checks the same bytes, so
// each beacon sent costs exactly one RSA verification.
func TestSensorReplicaBeaconMemoCounts(t *testing.T) {
	cfg := PaperSensorConfig()
	cfg.IC = true
	cfg.L = 3
	cfg.Seed = 1
	const wantSent, wantHits, wantMisses = 500, 3958, 500
	spec, _, err := sensorSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, net := runProbed(t, spec)
	var hits, misses, sent uint64
	for _, nd := range net.Nodes {
		hits += nd.STS.Stats.VerifyMemoHits
		misses += nd.STS.Stats.VerifyMemoMisses
		sent += nd.STS.Stats.BeaconsSent
	}
	if sent != wantSent || hits != wantHits || misses != wantMisses {
		t.Errorf("%d beacons sent, %d checks answered from the memo and %d RSA verifications, want %d, %d and %d",
			sent, hits, misses, wantSent, wantHits, wantMisses)
	}
}
