package faults

import (
	"bytes"
	"testing"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

type wireMsg struct {
	body string
	size int
}

func (m wireMsg) Size() int { return m.size }

// testNet is a small chain of link services plus a fabric for Apply.
type testNet struct {
	k    *sim.Kernel
	svcs []*link.Service
}

func buildNet(n int) *testNet {
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(1)
	svcs := make([]*link.Service, n)
	for i := 0; i < n; i++ {
		m := mac.New(k, ch, mobility.Static(geo.Point{X: float64(100 * i)}), nil, rng.SplitN("mac", i), mac.Default80211())
		svcs[i] = link.NewService(m)
	}
	return &testNet{k: k, svcs: svcs}
}

func (tn *testNet) fabric(seed int64) Fabric {
	return Fabric{
		K:    tn.k,
		RNG:  sim.NewRNG(seed),
		N:    len(tn.svcs),
		Link: func(i int) LinkPort { return tn.svcs[i] },
	}
}

func (tn *testNet) apply(t *testing.T, c Campaign) *Applied {
	t.Helper()
	a, err := Apply(tn.fabric(7), &c)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestApplyDropFault(t *testing.T) {
	tn := buildNet(2)
	got := 0
	tn.svcs[1].OnRecv(func(e link.Env) { got++ })
	a := tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Drop, Params: Params{P: 1}, Targets: Selector{Nodes: []int{0}}},
	}})
	for i := 0; i < 5; i++ {
		if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"x", 50}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("drop p=1 delivered %d messages", got)
	}
	if inj := a.Report().Entries[0].Injected; inj != 5 {
		t.Fatalf("injected = %d, want 5", inj)
	}
}

func TestApplyDropInbound(t *testing.T) {
	// The same entry aimed at the receiver's inbound side: node 0 is clean,
	// node 1 discards everything arriving.
	tn := buildNet(2)
	got := 0
	tn.svcs[1].OnRecv(func(e link.Env) { got++ })
	tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Drop, Dir: DirIn, Params: Params{P: 1}, Targets: Selector{Nodes: []int{1}}},
	}})
	if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"x", 50}); err != nil {
		t.Fatal(err)
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("inbound drop delivered %d messages", got)
	}
}

func TestApplyDelayFault(t *testing.T) {
	tn := buildNet(2)
	var at sim.Time
	tn.svcs[1].OnRecv(func(e link.Env) { at = tn.k.Now() })
	tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Delay, Params: Params{MinDelay: 0.25, MaxDelay: 0.25}, Targets: Selector{Nodes: []int{0}}},
	}})
	if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"slow", 50}); err != nil {
		t.Fatal(err)
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if at < 0.25 {
		t.Fatalf("delivery at %v, want >= 0.25s", at)
	}
}

func TestApplyDuplicateFault(t *testing.T) {
	tn := buildNet(2)
	got := 0
	tn.svcs[1].OnRecv(func(e link.Env) { got++ })
	tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Duplicate, Params: Params{Copies: 2}, Targets: Selector{Nodes: []int{0}}},
	}})
	if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"x", 50}); err != nil {
		t.Fatal(err)
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("duplicate copies=2 delivered %d messages, want 3", got)
	}
}

func TestApplyCorruptFault(t *testing.T) {
	tn := buildNet(2)
	orig := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	var got vote.AgreedMsg
	tn.svcs[1].OnRecv(func(e link.Env) { got = e.Msg.(vote.AgreedMsg) })
	a := tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Corrupt, Targets: Selector{Nodes: []int{0}}},
	}})
	msg := vote.AgreedMsg{Sig: thresh.Signature{Data: orig}}
	if err := tn.svcs[0].Send(tn.svcs[1].ID(), msg); err != nil {
		t.Fatal(err)
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Sig.Data, orig) {
		t.Fatal("signature arrived uncorrupted")
	}
	if !bytes.Equal(msg.Sig.Data, []byte{0xAA, 0xBB, 0xCC, 0xDD}) {
		t.Fatal("corrupt fault modified the sender's message in place")
	}
	if inj := a.Report().Entries[0].Injected; inj != 1 {
		t.Fatalf("injected = %d, want 1", inj)
	}
}

func TestApplyCorruptSkipsUnknownTypes(t *testing.T) {
	// Without a Mutate hook, corrupt only touches signature-bearing
	// messages; plain payloads pass through untouched and uncounted.
	tn := buildNet(2)
	var got wireMsg
	tn.svcs[1].OnRecv(func(e link.Env) { got = e.Msg.(wireMsg) })
	a := tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Corrupt, Targets: Selector{Nodes: []int{0}}},
	}})
	if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"plain", 50}); err != nil {
		t.Fatal(err)
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if got.body != "plain" {
		t.Fatalf("got %+v", got)
	}
	if inj := a.Report().Entries[0].Injected; inj != 0 {
		t.Fatalf("injected = %d, want 0", inj)
	}
}

func TestApplyReorderFault(t *testing.T) {
	tn := buildNet(2)
	var bodies []string
	tn.svcs[1].OnRecv(func(e link.Env) { bodies = append(bodies, e.Msg.(wireMsg).body) })
	tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Reorder, Params: Params{P: 0.999}, Targets: Selector{Nodes: []int{0}}},
	}})
	// The first message is held; the second overtakes it.
	if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"first", 50}); err != nil {
		t.Fatal(err)
	}
	if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"second", 50}); err != nil {
		t.Fatal(err)
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 || bodies[0] != "second" || bodies[1] != "first" {
		t.Fatalf("delivery order %v, want [second first]", bodies)
	}
}

func TestApplyReorderHoldDeadline(t *testing.T) {
	// With nothing overtaking it, the held message is released after Hold.
	tn := buildNet(2)
	var at sim.Time
	tn.svcs[1].OnRecv(func(e link.Env) { at = tn.k.Now() })
	tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Reorder, Params: Params{P: 0.999, Hold: 0.4}, Targets: Selector{Nodes: []int{0}}},
	}})
	if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"lone", 50}); err != nil {
		t.Fatal(err)
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if at < 0.4 {
		t.Fatalf("lone held message delivered at %v, want >= 0.4s", at)
	}
}

func TestApplyCrashWindow(t *testing.T) {
	tn := buildNet(2)
	got := 0
	tn.svcs[1].OnRecv(func(e link.Env) { got++ })
	a := tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Crash, Targets: Selector{Nodes: []int{0}}, Schedule: Window{From: 1, To: 2}},
	}})
	send := func() {
		if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"x", 50}); err != nil {
			t.Error(err)
		}
	}
	tn.k.ScheduleFire(sim.Duration(0.5), send) // before the crash
	tn.k.ScheduleFire(sim.Duration(1.5), send) // node is down
	tn.k.ScheduleFire(sim.Duration(2.5), send) // recovered
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("delivered %d messages across the crash window, want 2", got)
	}
	if inj := a.Report().Entries[0].Injected; inj != 1 {
		t.Fatalf("injected = %d, want 1", inj)
	}
}

func TestApplySpoofFault(t *testing.T) {
	tn := buildNet(3)
	victim := 2
	var got sts.BeaconMsg
	var from link.NodeID
	tn.svcs[1].OnRecv(func(e link.Env) {
		got = e.Msg.(sts.BeaconMsg)
		from = e.From
	})
	a := tn.apply(t, Campaign{Entries: []Entry{
		{Fault: Spoof, Params: Params{As: &victim}, Targets: Selector{Nodes: []int{0}}},
	}})
	beacon := sts.BeaconMsg{From: tn.svcs[0].ID(), Seq: 5, Base: 28}
	if err := tn.svcs[0].Send(link.BroadcastID, beacon); err != nil {
		t.Fatal(err)
	}
	if err := tn.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if got.From != link.NodeID(victim) || from != link.NodeID(victim) {
		t.Fatalf("beacon From = %d, env From = %d; want victim %d", got.From, from, victim)
	}
	if got.Seq != 5+1<<32 {
		t.Fatalf("forged Seq = %d, want replay-counter bump", got.Seq)
	}
	if inj := a.Report().Entries[0].Injected; inj != 1 {
		t.Fatalf("injected = %d, want 1", inj)
	}
}

func TestApplyByzantineInertWithoutVote(t *testing.T) {
	// A byzantine entry on a node with no voting service must be inert, not
	// an error: one campaign sweeps both the IC and No-IC table rows.
	tn := buildNet(2)
	fab := tn.fabric(7)
	fab.Vote = func(int) VoteCtl { return nil }
	c := Campaign{Entries: []Entry{
		{Fault: Byzantine, Targets: Selector{Nodes: []int{0}}},
	}}
	if _, err := Apply(fab, &c); err != nil {
		t.Fatalf("byzantine on a vote-less node should be inert, got %v", err)
	}
}

// togglingRouter records black-hole on/off transitions with timestamps.
type togglingRouter struct {
	k     *sim.Kernel
	times []sim.Time
	on    []bool
}

func (r *togglingRouter) SetBlackHole(on bool) {
	r.times = append(r.times, r.k.Now())
	r.on = append(r.on, on)
}
func (r *togglingRouter) SetGrayHole(p float64, rng *sim.RNG) {}
func (r *togglingRouter) MisbehaviorCount() uint64            { return 0 }

func TestApplyRouterChurnWindow(t *testing.T) {
	k := sim.NewKernel()
	rtr := &togglingRouter{k: k}
	fab := Fabric{
		K:      k,
		RNG:    sim.NewRNG(7),
		N:      2,
		Router: func(int) RouterCtl { return rtr },
	}
	c := Campaign{Entries: []Entry{
		{Fault: Blackhole, Targets: Selector{Nodes: []int{0}}, Schedule: Window{Every: 10, For: 3, To: 25}},
	}}
	if _, err := Apply(fab, &c); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(40); err != nil {
		t.Fatal(err)
	}
	// Expected transitions: on@0 off@3 on@10 off@13 on@20 off@23, then the
	// To=25 bound stops the chain.
	wantOn := []bool{true, false, true, false, true, false}
	wantT := []sim.Time{0, 3, 10, 13, 20, 23}
	if len(rtr.on) != len(wantOn) {
		t.Fatalf("transitions %v @ %v", rtr.on, rtr.times)
	}
	for i := range wantOn {
		if rtr.on[i] != wantOn[i] || rtr.times[i] != wantT[i] {
			t.Fatalf("transition %d: %v@%v, want %v@%v", i, rtr.on[i], rtr.times[i], wantOn[i], wantT[i])
		}
	}
}

func TestApplySameSeedSameDraws(t *testing.T) {
	// Two identical networks under the same campaign and seed make
	// identical per-message decisions.
	run := func() (delivered int, injected uint64) {
		tn := buildNet(2)
		tn.svcs[1].OnRecv(func(e link.Env) { delivered++ })
		a := tn.apply(t, Campaign{Entries: []Entry{
			{Fault: Drop, Params: Params{P: 0.5}, Targets: Selector{Nodes: []int{0}}},
		}})
		for i := 0; i < 40; i++ {
			if err := tn.svcs[0].Send(tn.svcs[1].ID(), wireMsg{"x", 50}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tn.k.Run(10); err != nil {
			t.Fatal(err)
		}
		return delivered, a.Report().Entries[0].Injected
	}
	d1, i1 := run()
	d2, i2 := run()
	if d1 != d2 || i1 != i2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", d1, i1, d2, i2)
	}
	if i1 == 0 || d1 == 0 {
		t.Fatalf("p=0.5 over 40 messages should both drop and deliver (delivered %d, dropped %d)", d1, i1)
	}
	if d1+int(i1) != 40 {
		t.Fatalf("delivered %d + dropped %d != 40", d1, i1)
	}
}
