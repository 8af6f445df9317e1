package link_test

import (
	"fmt"
	"slices"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
	"innercircle/internal/trace"
)

// sized is a message known by its size, which the tracer logs.
type sized int

func (m sized) Size() int { return int(m) }

// The fault tap's three kinds, by size.
const (
	dropped    sized = 11
	duplicated sized = 22
	spoofed    sized = 33
)

// forgedFrom is the source a spoofed message claims.
const forgedFrom link.NodeID = 9

// faultTap drops, duplicates or spoofs each message by its size, in both
// directions.
type faultTap struct{}

func (faultTap) Outbound(e link.Env, emit func(link.Env)) { faultTap{}.act(e, emit) }
func (faultTap) Inbound(e link.Env, emit func(link.Env))  { faultTap{}.act(e, emit) }

func (faultTap) act(e link.Env, emit func(link.Env)) {
	switch e.Msg {
	case dropped:
	case duplicated:
		emit(e)
		emit(e)
	case spoofed:
		e.From = forgedFrom
		emit(e)
	default:
		emit(e)
	}
}

// TestTracerBelowFaultTap: node.Build attaches the tracer before any fault
// injector, so the tracer sits next to the MAC and a fault tap above it.
// The tracer then logs outbound traffic after the faults acted — no
// dropped message, the duplicate twice — and inbound traffic before they
// act — the dropped message, the duplicate once, the spoofed message
// under its true source.
func TestTracerBelowFaultTap(t *testing.T) {
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(1)
	var svcs []*link.Service
	ups := make([][]string, 3)
	for i := 0; i < 3; i++ {
		m := mac.New(k, ch, mobility.Static(geo.Point{X: float64(i) * 100}), nil, rng.SplitN("mac", i), mac.Default80211())
		l := link.NewService(m)
		l.OnRecv(func(e link.Env) { ups[i] = append(ups[i], fmt.Sprintf("%d from %d", e.Msg.Size(), e.From)) })
		svcs = append(svcs, l)
	}
	tr := trace.New(100)
	tr.Attach(svcs[1])
	svcs[1].AddTap(faultTap{})

	kinds := []sized{dropped, duplicated, spoofed}
	for _, m := range kinds { // outbound through node 1's faults
		_ = svcs[1].SendRaw(link.BroadcastID, m)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	for _, m := range kinds { // inbound through node 1's faults
		_ = svcs[0].SendRaw(svcs[1].ID(), m)
	}
	if err := k.Run(2); err != nil {
		t.Fatal(err)
	}

	var traced []string
	for _, e := range tr.Events() {
		traced = append(traced, fmt.Sprintf("%v %d %d", e.Dir, e.Bytes, e.Peer))
	}
	bc := int(link.BroadcastID)
	want := []string{
		fmt.Sprintf("tx 22 %d", bc), fmt.Sprintf("tx 22 %d", bc), fmt.Sprintf("tx 33 %d", bc),
		"rx 11 0", "rx 22 0", "rx 33 0",
	}
	if !slices.Equal(traced, want) {
		t.Errorf("tracer logged %v, want %v", traced, want)
	}
	if want := []string{"22 from 1", "22 from 1", "33 from 9"}; !slices.Equal(ups[2], want) {
		t.Errorf("node 2 received %v, want %v", ups[2], want)
	}
	if want := []string{"22 from 0", "22 from 0", "33 from 9"}; !slices.Equal(ups[1], want) {
		t.Errorf("node 1 delivered %v, want %v", ups[1], want)
	}
}
