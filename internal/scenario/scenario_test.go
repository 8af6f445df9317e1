package scenario

import (
	"strings"
	"testing"

	"innercircle/internal/energy"
	"innercircle/internal/faults"
	"innercircle/internal/geo"
	"innercircle/internal/mac"
	"innercircle/internal/node"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/traffic"
	"innercircle/internal/vote"
)

// nopComponent attaches nothing; used to exercise optional interfaces.
type nopComponent struct{}

func (nopComponent) Attach(*Env, *node.Node) {}

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

// registrarComponent implements Registrar.
type registrarComponent struct{ nopComponent }

func (registrarComponent) Register(*Env, *node.Node) vote.Callbacks { return vote.Callbacks{} }

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
		{"two registrars", func(s *Spec) {
			s.Stack.Components = []Component{registrarComponent{}, registrarComponent{}}
		}, "at most one component"},
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
