package traffic

import (
	"fmt"
	"reflect"
	"testing"

	"innercircle/internal/sim"
)

// record is one injected packet, captured with its generation time.
type record struct {
	at       sim.Time
	src, dst int
	payload  string
	size     int
}

// runCBR plans and runs a CBR program on a fresh kernel, returning the
// packet log, the plan's attacker order, and the sent count.
func runCBR(t *testing.T, seed int64, cfg CBR, n int, end sim.Time) ([]record, []int, int) {
	t.Helper()
	k := sim.NewKernel()
	var got []record
	deps := Deps{
		K:   k,
		RNG: sim.NewRNG(seed).Split("traffic"),
		N:   n,
		End: end,
		Unicast: func(src, dst int, payload any, size int) {
			got = append(got, record{k.Now(), src, dst, fmt.Sprint(payload), size})
		},
	}
	plan, err := cfg.Plan(deps)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	plan.Start()
	// Run well past End: the clock guard, not the kernel horizon, must
	// bound generation.
	if err := k.Run(end * 4); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return got, plan.(Orderer).Order(), plan.(Sender).Sent()
}

// Satellite 3a: two runs with the same seed must produce the identical
// packet schedule — same endpoints, same jittered start times, same
// payload sequence — while a different seed must not.
func TestCBRJitterDeterminism(t *testing.T) {
	cfg := CBR{Connections: 4, Rate: 2, PacketBytes: 512}
	a, orderA, sentA := runCBR(t, 42, cfg, 20, 10)
	b, orderB, sentB := runCBR(t, 42, cfg, 20, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", a, b)
	}
	if !reflect.DeepEqual(orderA, orderB) || sentA != sentB {
		t.Fatalf("same seed diverged in order/sent: %v/%d vs %v/%d", orderA, sentA, orderB, sentB)
	}
	if sentA != len(a) || sentA == 0 {
		t.Fatalf("sent = %d, log = %d packets", sentA, len(a))
	}
	c, _, _ := runCBR(t, 43, cfg, 20, 10)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Satellite 3b: generation stops strictly before End even though the
// kernel keeps running events past it.
func TestCBRStopsAtEnd(t *testing.T) {
	const end = sim.Time(5)
	got, _, sent := runCBR(t, 7, CBR{Connections: 3, Rate: 10, PacketBytes: 64}, 12, end)
	if len(got) == 0 {
		t.Fatal("no packets generated")
	}
	for _, r := range got {
		if r.at >= end {
			t.Fatalf("packet generated at %v, at/past end %v", r.at, end)
		}
	}
	if sent != len(got) {
		t.Fatalf("sent = %d, log = %d", sent, len(got))
	}
}

// The permutation's head is reserved for endpoints; Order is the tail and
// must exclude every endpoint.
func TestCBROrderExcludesEndpoints(t *testing.T) {
	const n = 16
	cfg := CBR{Connections: 5, Rate: 1, PacketBytes: 100}
	got, order, _ := runCBR(t, 11, cfg, n, 3)
	if want := n - 2*cfg.Connections; len(order) != want {
		t.Fatalf("order has %d nodes, want %d", len(order), want)
	}
	endpoints := map[int]bool{}
	for _, r := range got {
		endpoints[r.src] = true
		endpoints[r.dst] = true
	}
	for _, id := range order {
		if endpoints[id] {
			t.Fatalf("node %d is both endpoint and in attacker order", id)
		}
	}
}

func TestCBRValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  CBR
		n    int
		ok   bool
		res  int
	}{
		{"ok", CBR{Connections: 3, Rate: 4, PacketBytes: 512}, 10, true, 6},
		{"zero conns", CBR{}, 4, true, 0},
		{"negative conns", CBR{Connections: -1}, 10, false, 0},
		{"bad rate", CBR{Connections: 1, Rate: 0, PacketBytes: 10}, 10, false, 0},
		{"bad bytes", CBR{Connections: 1, Rate: 1, PacketBytes: 0}, 10, false, 0},
		{"too many conns", CBR{Connections: 6, Rate: 1, PacketBytes: 1}, 10, false, 0},
	}
	for _, tc := range cases {
		res, err := tc.cfg.Validate(tc.n)
		if tc.ok && (err != nil || res != tc.res) {
			t.Errorf("%s: got (%d, %v), want (%d, nil)", tc.name, res, err, tc.res)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestCBRNeedsUnicast(t *testing.T) {
	deps := Deps{K: sim.NewKernel(), RNG: sim.NewRNG(1), N: 10, End: 5}
	if _, err := (&CBR{Connections: 1, Rate: 1, PacketBytes: 1}).Plan(deps); err == nil {
		t.Fatal("expected error when Unicast is nil")
	}
}

// Epochs must fire 1..k strictly before End, at multiples of Period, and
// run every node's hook on the node's home kernel, in ascending index
// within a kernel: two kernels make exactly the calls of the one-kernel
// chain, split by ownership.
func TestEpochsSchedule(t *testing.T) {
	type call struct {
		epoch int64
		at    sim.Time
		node  int
	}
	const n = 5
	var log []call
	e := &Epochs{Period: 2, OnNode: func(epoch int64, now sim.Time, node int) {
		log = append(log, call{epoch, now, node})
	}}
	// start plans and starts e on deps, then runs each kernel on its own:
	// whatever is logged while kernel s runs was issued by kernel s.
	start := func(deps Deps, kernels ...*sim.Kernel) [][]call {
		t.Helper()
		deps.RNG, deps.N, deps.End = sim.NewRNG(1), n, 9
		plan, err := e.Plan(deps)
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		plan.Start()
		var perKernel [][]call
		for _, k := range kernels {
			log = nil
			if err := k.Run(100); err != nil {
				t.Fatalf("Run: %v", err)
			}
			perKernel = append(perKernel, log)
		}
		return perKernel
	}

	k := sim.NewKernel()
	one := start(Deps{K: k}, k)[0]
	var want []call
	for epoch := int64(1); epoch <= 4; epoch++ {
		for node := 0; node < n; node++ {
			want = append(want, call{epoch, sim.Time(2 * epoch), node})
		}
	}
	if !reflect.DeepEqual(one, want) {
		t.Fatalf("one kernel made calls %v, want %v", one, want)
	}

	set := sim.NewShardSet(2, 0.5)
	home := func(i int) int { return i % 2 }
	two := start(Deps{K: set.Kernel(0), Set: set, NodeShard: home}, set.Kernel(0), set.Kernel(1))
	for s, got := range two {
		var want []call
		for _, c := range one {
			if home(c.node) == s {
				want = append(want, c)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel %d made calls %v, want the one-kernel chain's calls for its own nodes %v", s, got, want)
		}
	}
}

func TestEpochsValidate(t *testing.T) {
	if _, err := (&Epochs{Period: 0, OnNode: func(int64, sim.Time, int) {}}).Validate(5); err == nil {
		t.Fatal("expected error for period 0")
	}
	if _, err := (&Epochs{Period: 1}).Validate(5); err == nil {
		t.Fatal("expected error for nil callback")
	}
}
