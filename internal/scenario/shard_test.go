package scenario

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/trace"
	"innercircle/internal/traffic"
	"innercircle/internal/vote"
)

// chatMsg is the frame every node of the planner test's field broadcasts
// each epoch.
type chatMsg struct{}

func (chatMsg) Size() int { return 32 }

// chatter gives a replica wire traffic for the equalities below to bite on:
// every node broadcasts one frame per epoch, after a jitter from its own
// stream (synchronized border transmissions tie), and counts the frames it
// hears — per-node slots, so shards running on separate goroutines share
// nothing.
type chatter struct {
	nodes  []*node.Node
	jitter []*sim.RNG
	heard  []uint64
}

func (c *chatter) Attach(_ *Env, nd *node.Node) {
	if nd.Index == 0 { // a new attempt: drop the last one's nodes
		c.nodes, c.jitter, c.heard = nil, nil, nil
	}
	c.nodes = append(c.nodes, nd)
	c.jitter = append(c.jitter, nd.RNG.Split("chat"))
	c.heard = append(c.heard, 0)
	nd.Handle(func(e link.Env) bool {
		if _, ok := e.Msg.(chatMsg); ok {
			c.heard[nd.Index]++
			return true
		}
		return false
	})
}

func (c *chatter) onEpoch(_ int64, _ sim.Time, i int) {
	nd := c.nodes[i]
	nd.K.ScheduleFire(c.jitter[i].Jitter(1), func() { _ = nd.Link.Send(link.BroadcastID, chatMsg{}) })
}

// total is the frames all nodes heard.
func (c *chatter) total() uint64 {
	var n uint64
	for _, h := range c.heard {
		n += h
	}
	return n
}

// outcome is what a replica computed: its Result without the planner's
// decision, which the requested shard count may change and nothing else may.
func outcome(r *Result) Result {
	o := *r
	o.Shards, o.ShardReason = 0, ""
	return o
}

// tieMaker plants the smallest ambiguous tie on a partitioned replica:
// shard 0 posts a message to shard 1 at the bit-identical instant of one of
// shard 1's own events. On one kernel it schedules nothing.
type tieMaker struct{ nopComponent }

func (tieMaker) Start(env *Env) {
	set := env.Net.Set
	if set == nil {
		return
	}
	k0, k1 := set.Kernel(0), set.Kernel(1)
	k0.ScheduleFireTx(1, func() { set.Post(k0, 1, k0.Now(), func(any) {}, nil) }, true)
	k1.ScheduleFire(1, func() {})
}

// unmarked hides a program's ShardSafe marker.
type unmarked struct{ traffic.Program }

// bystander is an adversary that does nothing and carries no marker.
type bystander struct{}

func (bystander) Budget(int) (int, error) { return 0, nil }
func (bystander) Apply(*Env, []int) error { return nil }

// fieldSpec is a 40-node static field that can run on 4 shards: 5 radio
// columns, a ShardSafe epoch program, no tracer, churn or adversary.
func fieldSpec() *Spec {
	chat := &chatter{}
	return &Spec{
		Name:     "field",
		Nodes:    40,
		Seed:     7,
		SimTime:  20,
		Shards:   4,
		Topology: BaseStationGrid{Region: geo.Square(200), GridJitter: 4},
		Stack: Stack{
			Radio:      radio.Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8},
			MAC:        mac.Default80211(),
			Energy:     energy.NS2Default(),
			Components: []Component{chat},
		},
		Traffic: &traffic.Epochs{Period: 5, OnNode: chat.onEpoch},
	}
}

// TestShardPlan walks every rule by which planShards lowers a requested
// count, one row each, in the planner's order: the replica must run on the
// count the row names, say why, report it on ShardStats, and compute
// exactly what the same Spec computes when it asks for one shard. Every row
// but the one-slot rule's runs at GOMAXPROCS=2, so the budget leaves it two
// executor slots and the row's own rule is what decides.
func TestShardPlan(t *testing.T) {
	for _, tc := range []struct {
		name       string
		mutate     func(s *Spec)
		wantShards int
		wantReason string
		procs      int // GOMAXPROCS; 0 means 2
	}{
		{"nothing in the way", func(s *Spec) {}, 4, "", 0},
		{"tracer", func(s *Spec) { s.Stack.Tracer = trace.New(16) }, 1, ReasonTracer, 0},
		{"active churn", func(s *Spec) {
			s.Stack.IC = true
			s.Stack.STS = sts.Config{Period: 0.9, Delta: 2, Authenticate: true, BeaconBaseBytes: 28}
			s.Stack.Vote = vote.Config{Mode: vote.Deterministic, L: 2, RoundTimeout: 0.5, Retries: 1}
			s.Stack.MaxL = 3
			s.Churn = &Churn{CrashRejoin: 2, Start: 4, Window: 8, Downtime: 2}
		}, 1, ReasonChurn, 0},
		{"traffic without the marker", func(s *Spec) { s.Traffic = unmarked{s.Traffic} }, 1, ReasonTraffic, 0},
		{"adversary without the marker", func(s *Spec) { s.Adversary = bystander{} }, 1, ReasonAdversary, 0},
		{"timestamp tie", func(s *Spec) {
			s.Stack.Components = append(s.Stack.Components, tieMaker{})
		}, 1, ReasonTie, 0},
		{"mobile topology", func(s *Spec) {
			s.Topology = RandomWaypoint{Region: geo.Square(200), MinSpeed: 1, MaxSpeed: 1}
		}, 1, ReasonMobile, 0},
		{"narrower than two columns", func(s *Spec) { s.Stack.Radio.Range = 250 }, 1, ReasonColumns, 0},
		{"fewer columns than shards", func(s *Spec) { s.Shards = 64 }, 5, ReasonColumns, 0},
		{"one executor slot", func(s *Spec) {}, 1, ReasonSlots, 1},
		// Several rules at once report the first in the planner's order.
		{"tracer before mobile", func(s *Spec) {
			s.Stack.Tracer = trace.New(16)
			s.Topology = RandomWaypoint{Region: geo.Square(200), MinSpeed: 1, MaxSpeed: 1}
		}, 1, ReasonTracer, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			procs := tc.procs
			if procs == 0 {
				procs = 2
			}
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			run := func(shards int, stats *bytes.Buffer) (*Result, uint64) {
				s := fieldSpec()
				tc.mutate(s)
				if shards > 0 {
					s.Shards = shards
				}
				if stats != nil {
					s.ShardStats = stats
				}
				chat := s.Stack.Components[0].(*chatter)
				res, err := Run(s)
				if err != nil {
					t.Fatalf("Run at %d shards: %v", s.Shards, err)
				}
				return res, chat.total()
			}
			var stats, quiet bytes.Buffer
			want, wantHeard := run(1, &quiet)
			got, gotHeard := run(0, &stats)
			if want.Shards != 1 || want.ShardReason != "" || quiet.Len() != 0 {
				t.Fatalf("one shard asked: ran on %d, reason %q, stats %q", want.Shards, want.ShardReason, quiet.String())
			}
			if wantHeard == 0 {
				t.Fatal("the field carried no traffic")
			}
			if got.Shards != tc.wantShards || got.ShardReason != tc.wantReason {
				t.Fatalf("ran on %d shards, reason %q; want %d, %q", got.Shards, got.ShardReason, tc.wantShards, tc.wantReason)
			}
			if gotHeard != wantHeard || outcome(got) != outcome(want) {
				t.Errorf("differs from the one-shard run: %d frames heard, %+v\nvs %d, %+v", gotHeard, *got, wantHeard, *want)
			}
			// The report: one table per sharded run, the reason when lowered.
			report := stats.String()
			if table := strings.Contains(report, "  shard  0: events="); table != (got.Shards > 1) {
				t.Errorf("per-shard table present = %v on %d shards:\n%s", table, got.Shards, report)
			}
			if tc.wantReason != "" && !strings.Contains(report, ": "+tc.wantReason+"\n") {
				t.Errorf("report does not give the reason %q:\n%s", tc.wantReason, report)
			}
			if tc.wantReason == "" && strings.Contains(report, "ran on") {
				t.Errorf("report gives a reason for a run that was not lowered:\n%s", report)
			}
		})
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }

// TestShardStatsOneWritePerReplica: replicas on the worker pool share the
// writer, so a replica's whole report must arrive in a single Write.
func TestShardStatsOneWritePerReplica(t *testing.T) {
	for _, shards := range []int{4, 64} {
		var w countingWriter
		s := fieldSpec()
		s.Shards, s.ShardStats = shards, &w
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("shards=%d: report took %d writes, want 1", shards, w.writes)
		}
	}
}

// TestShardPlanSizesExecutorFromBudget: the planner's last rule sizes the
// executor from what it observes — one slot for the caller plus the spare
// core tokens, at most one per further shard, capped at GOMAXPROCS — holds
// slots-1 tokens for the replica, and plans one kernel when that leaves one
// slot: at GOMAXPROCS=1, or when a worker pool holds every token.
func TestShardPlanSizesExecutorFromBudget(t *testing.T) {
	s := fieldSpec()
	seed := sim.NewRNG(s.Seed)
	positions := s.Topology.Place(s.Nodes, seed.Split("placement"))
	base := sim.CoresInUse()
	for _, tc := range []struct {
		procs, held   int // GOMAXPROCS, tokens other replicas hold
		slots, shards int
		reason        string
	}{
		{1, 0, 1, 1, ReasonSlots},
		{2, 0, 2, 4, ""},
		{4, 0, 4, 4, ""},
		{8, 0, 4, 4, ""},
		{4, 3, 2, 4, ""},
		{4, 4, 1, 1, ReasonSlots},
	} {
		prev := runtime.GOMAXPROCS(tc.procs)
		if got := sim.AcquireCores(tc.held); got != tc.held {
			t.Fatalf("AcquireCores(%d) = %d", tc.held, got)
		}
		p := planShards(s, positions, seed, false)
		if p.slots != tc.slots || p.shards != tc.shards || p.reason != tc.reason {
			t.Errorf("GOMAXPROCS=%d, %d tokens held: %d slots, %d shards, reason %q; want %d, %d, %q",
				tc.procs, tc.held, p.slots, p.shards, p.reason, tc.slots, tc.shards, tc.reason)
		}
		if got := sim.CoresInUse() - base; got != tc.held+p.slots-1 {
			t.Errorf("GOMAXPROCS=%d, %d tokens held: the plan leaves %d in use, want %d", tc.procs, tc.held, got, tc.held+p.slots-1)
		}
		sim.ReleaseCores(tc.held + p.slots - 1)
		runtime.GOMAXPROCS(prev)
	}
	if got := sim.CoresInUse(); got != base {
		t.Fatalf("%d core tokens in use afterwards, want %d", got, base)
	}
}
