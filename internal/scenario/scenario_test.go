package scenario

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"innercircle/internal/energy"
	"innercircle/internal/faults"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/traffic"
	"innercircle/internal/vote"
)

// nopComponent attaches nothing; used to exercise optional interfaces.
type nopComponent struct{}

func (nopComponent) Attach(*Env, *node.Node) *vote.Callbacks { return nil }

// floorComponent vetoes populations below its floor.
type floorComponent struct {
	nopComponent
	floor int
}

func (c floorComponent) Validate(s *Spec) error {
	if s.Nodes < c.floor {
		return errFloor
	}
	return nil
}

var errFloor = &floorError{}

type floorError struct{}

func (*floorError) Error() string { return "population below floor" }

func validSpec() *Spec {
	return &Spec{
		Name:    "test",
		Nodes:   10,
		Seed:    1,
		SimTime: 5,
		Topology: RandomWaypoint{
			Region:   geo.Square(500),
			MinSpeed: 1, MaxSpeed: 1,
		},
		Stack: Stack{
			Radio:  radio.Default80211(),
			MAC:    mac.Default80211(),
			Energy: energy.NS2Default(),
		},
	}
}

func TestSpecValidate(t *testing.T) {
	camp3 := faults.BlackholePreset(3)
	camp9 := faults.BlackholePreset(9)
	cases := []struct {
		name    string
		mutate  func(s *Spec)
		wantErr string // substring; empty means valid
	}{
		{"valid minimal", func(s *Spec) {}, ""},
		{"no nodes", func(s *Spec) { s.Nodes = 0 }, "at least 1 node"},
		{"no sim time", func(s *Spec) { s.SimTime = 0 }, "positive sim time"},
		{"no topology", func(s *Spec) { s.Topology = nil }, "topology required"},
		{"shards at the bound", func(s *Spec) { s.Shards = MaxShards }, ""},
		{"shards past the bound", func(s *Spec) { s.Shards = MaxShards + 1 }, "shard count must be between"},
		{"negative shards", func(s *Spec) { s.Shards = -1 }, "shard count must be between"},
		{"component veto", func(s *Spec) {
			s.Stack.Components = []Component{floorComponent{floor: 20}}
		}, "population below floor"},
		{"component floor met", func(s *Spec) {
			s.Stack.Components = []Component{floorComponent{floor: 5}}
		}, ""},
		{"traffic invalid", func(s *Spec) {
			s.Traffic = &traffic.CBR{Connections: 2, Rate: 0, PacketBytes: 1}
		}, "rate"},
		{"traffic over-subscribed", func(s *Spec) {
			s.Traffic = &traffic.CBR{Connections: 6, Rate: 1, PacketBytes: 1}
		}, "cannot host"},
		{"adversary without campaign", func(s *Spec) {
			s.Adversary = CampaignAdversary{}
		}, "needs a campaign"},
		{"endpoints plus attackers fit", func(s *Spec) {
			s.Traffic = &traffic.CBR{Connections: 3, Rate: 1, PacketBytes: 1}
			s.Adversary = CampaignAdversary{Campaign: &camp3}
		}, ""},
		{"endpoints plus attackers exceed population", func(s *Spec) {
			s.Traffic = &traffic.CBR{Connections: 3, Rate: 1, PacketBytes: 1}
			s.Adversary = CampaignAdversary{Campaign: &camp9}
		}, "traffic endpoints"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// Satellite check: the campaign budget matches the traffic order exactly —
// a campaign whose Count selector fills every non-endpoint node validates,
// one more node fails.
func TestValidateBudgetBoundary(t *testing.T) {
	fits := faults.BlackholePreset(4)
	s := validSpec()
	s.Traffic = &traffic.CBR{Connections: 3, Rate: 1, PacketBytes: 1}
	s.Adversary = CampaignAdversary{Campaign: &fits}
	if err := s.Validate(); err != nil {
		t.Fatalf("4 attackers + 6 endpoints on 10 nodes should fit: %v", err)
	}
	over := faults.BlackholePreset(5)
	s.Adversary = CampaignAdversary{Campaign: &over}
	if err := s.Validate(); err == nil {
		t.Fatal("5 attackers + 6 endpoints on 10 nodes accepted")
	}
}

func TestSinkTallyDeliver(t *testing.T) {
	var tally SinkTally
	tally.Deliver("c0-1")                   // intact string
	tally.Deliver(CorruptMark + "c0-2")     // corrupt-marked string
	tally.Deliver(42)                       // non-string payload counts intact
	tally.Deliver(nil)                      // nil payload counts intact
	tally.Deliver(CorruptMark)              // bare mark is corrupt
	tally.Deliver("x" + CorruptMark + "yz") // mark not at front: intact
	if tally.Received != 4 {
		t.Fatalf("Received = %d, want 4", tally.Received)
	}
	if tally.Corrupt != 2 {
		t.Fatalf("Corrupt = %d, want 2", tally.Corrupt)
	}
}

// epochCounter is a minimal component driving the smoke run; it keeps its
// count on itself.
type epochCounter struct {
	nopComponent
	fired int
}

func TestRunSmokeDeterministic(t *testing.T) {
	run := func() (*Result, int) {
		c := &epochCounter{}
		s := validSpec()
		s.Stack.Components = []Component{c}
		s.Traffic = &traffic.Epochs{Period: 0.25, OnNode: func(_ int64, _ sim.Time, node int) {
			if node == 0 {
				c.fired++
			}
		}}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, c.fired
	}
	a, aFired := run()
	b, bFired := run()
	if aFired == 0 {
		t.Fatal("no epochs fired")
	}
	if a.EnergyPerNode <= 0 {
		t.Fatal("no energy accounted")
	}
	if *a != *b || aFired != bFired {
		t.Fatalf("same seed diverged:\n%+v, %d epochs\nvs\n%+v, %d epochs", *a, aFired, *b, bFired)
	}
}

// callbacksAt returns (empty) vote callbacks for one node, or for every
// node when node is negative.
type callbacksAt struct{ node int }

func (c callbacksAt) Attach(_ *Env, nd *node.Node) *vote.Callbacks {
	if c.node >= 0 && nd.Index != c.node {
		return nil
	}
	return &vote.Callbacks{}
}

// TestRunRejectsTwoCallbackProviders: at most one component may return
// vote callbacks for a node. Two that do for the same node fail the
// replica, and the error names that node; two that do for different nodes
// do not.
func TestRunRejectsTwoCallbackProviders(t *testing.T) {
	s := validSpec()
	s.Stack.Components = []Component{callbacksAt{2}, callbacksAt{-1}}
	_, err := Run(s)
	if err == nil || !strings.Contains(err.Error(), "node 2: more than one component returns vote callbacks") {
		t.Fatalf("err = %v, want one naming node 2", err)
	}
	s.Stack.Components = []Component{callbacksAt{2}, callbacksAt{3}}
	if _, err := Run(s); err != nil {
		t.Fatalf("callbacks for different nodes: %v", err)
	}
}

// attachRecorder records the nodes Attach is called for, in call order,
// and checks what each call sees. With IC on it returns a Check per node
// that counts its calls, and proposes one value from node 0 once the
// topology services have converged.
type attachRecorder struct {
	t      *testing.T
	ic     bool
	order  []int
	checks []int
}

func (r *attachRecorder) Attach(env *Env, nd *node.Node) *vote.Callbacks {
	r.order = append(r.order, nd.Index)
	if env.Net != nil || nd.Link == nil || nd.STS == nil || nd.Vote != nil || (nd.Intercept != nil) != r.ic {
		r.t.Errorf("node %d: Attach saw Net set %v, Link %v, STS %v, Vote %v, Intercept %v",
			nd.Index, env.Net != nil, nd.Link != nil, nd.STS != nil, nd.Vote != nil, nd.Intercept != nil)
	}
	if !r.ic {
		return nil
	}
	if nd.Index == 0 {
		r.checks = make([]int, env.Spec.Nodes)
	}
	return &vote.Callbacks{Check: func(link.NodeID, []byte) bool {
		r.checks[nd.Index]++
		return true
	}}
}

func (r *attachRecorder) Wire(env *Env) {
	if r.ic {
		center := env.Net.Nodes[0]
		center.K.ScheduleFire(5, func() { _ = center.Vote.Propose([]byte("value")) })
	}
}

// TestAttachContract pins the one per-node hook: Attach runs once per node
// and attempt, in node order, inside node.Build — each node's link,
// topology service and (IC) interceptor exist, its voting service and the
// replica's network do not — and the Check it returns is the one the
// voting service calls.
func TestAttachContract(t *testing.T) {
	seq := func(n, attempts int) []int {
		var out []int
		for range attempts {
			for i := range n {
				out = append(out, i)
			}
		}
		return out
	}
	hellos := sts.Config{Period: 0.9, Delta: 2, BeaconBaseBytes: 28}
	t.Run("IC off, tie rerun", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		rec := &attachRecorder{t: t}
		s := fieldSpec()
		s.Stack.STS = hellos
		s.Stack.Components = append(s.Stack.Components, tieMaker{}, rec)
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.ShardReason != ReasonTie {
			t.Fatalf("ran on %d shards, reason %q; want the tie rerun", res.Shards, res.ShardReason)
		}
		if want := seq(s.Nodes, 2); !slices.Equal(rec.order, want) {
			t.Errorf("Attach called for nodes %v, want %v", rec.order, want)
		}
	})
	t.Run("IC on", func(t *testing.T) {
		rec := &attachRecorder{t: t, ic: true}
		s := validSpec()
		s.SimTime = 8
		s.Topology = RandomWaypoint{Region: geo.Square(200), MinSpeed: 1, MaxSpeed: 1}
		s.Stack.IC = true
		s.Stack.STS = hellos
		s.Stack.STS.Authenticate = true
		s.Stack.Vote = vote.Config{Mode: vote.Deterministic, L: 2, RoundTimeout: 0.5, Retries: 1}
		s.Stack.MaxL = 2
		s.Stack.Components = []Component{rec}
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
		if want := seq(s.Nodes, 1); !slices.Equal(rec.order, want) {
			t.Errorf("Attach called for nodes %v, want %v", rec.order, want)
		}
		checked := 0
		for _, n := range rec.checks {
			checked += n
		}
		if checked == 0 {
			t.Errorf("no voting service called a Check returned by Attach (per node: %v)", rec.checks)
		}
	})
}
