package trace

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

type msg struct{ n int }

func (m msg) Size() int { return m.n }

func buildTraced(t *testing.T, capacity int) (*sim.Kernel, *Tracer, []*link.Service) {
	t.Helper()
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Default80211())
	rng := sim.NewRNG(1)
	tr := New(capacity)
	tr.SetClock(k.Now)
	var svcs []*link.Service
	for i := 0; i < 2; i++ {
		m := mac.New(k, ch, mobility.Static(geo.Point{X: float64(i) * 100}), nil, rng.SplitN("m", i), mac.Default80211())
		l := link.NewService(m)
		tr.Attach(l)
		svcs = append(svcs, l)
	}
	return k, tr, svcs
}

func TestTracerRecordsTxAndRx(t *testing.T) {
	k, tr, svcs := buildTraced(t, 100)
	if err := svcs[0].SendRaw(1, msg{64}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want tx + rx", len(events))
	}
	if events[0].Dir != Out || events[0].Node != 0 || events[0].Peer != 1 {
		t.Fatalf("tx event = %+v", events[0])
	}
	if events[1].Dir != In || events[1].Node != 1 || events[1].Peer != 0 {
		t.Fatalf("rx event = %+v", events[1])
	}
	if events[0].Bytes != 64 || !strings.Contains(events[0].Type, "msg") {
		t.Fatalf("event detail = %+v", events[0])
	}
}

func TestTracerCountsPerType(t *testing.T) {
	k, tr, svcs := buildTraced(t, 0) // counters only
	for i := 0; i < 5; i++ {
		_ = svcs[0].SendRaw(1, msg{10})
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	counts := tr.Counts()
	if len(counts) != 1 {
		t.Fatalf("counts = %v", counts)
	}
	for _, v := range counts {
		if v != 5 {
			t.Fatalf("count = %d, want 5 transmissions", v)
		}
	}
	if len(tr.Events()) != 0 {
		t.Fatal("capacity 0 retained events")
	}
}

// TestTracerCapacityBound: a full log keeps exactly the last cap events,
// oldest first, in Events and WriteEvents alike — checked against an
// uncapped log of the same run, at capacities that wrap the log at
// different offsets.
func TestTracerCapacityBound(t *testing.T) {
	traced := func(capacity int) *Tracer {
		k, tr, svcs := buildTraced(t, capacity)
		for i := 0; i < 10; i++ {
			_ = svcs[0].SendRaw(link.BroadcastID, msg{8 + i}) // sizes tell events apart
		}
		if err := k.Run(1); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	all := traced(1000).Events()
	if len(all) != 20 {
		t.Fatalf("uncapped log holds %d events, want 10 tx + 10 rx", len(all))
	}
	for _, capacity := range []int{1, 3, 7, 20, 25} {
		tr := traced(capacity)
		want := all[max(0, len(all)-capacity):]
		if got := tr.Events(); !slices.Equal(got, want) {
			t.Fatalf("cap %d: retained %v, want the last %d events %v", capacity, got, len(want), want)
		}
		var sb, wantLog strings.Builder
		tr.WriteEvents(&sb)
		for _, e := range want {
			fmt.Fprintln(&wantLog, e)
		}
		if sb.String() != wantLog.String() {
			t.Fatalf("cap %d: WriteEvents printed\n%s\nwant\n%s", capacity, sb.String(), wantLog.String())
		}
	}
}

func TestSummaryAndEventOutput(t *testing.T) {
	k, tr, svcs := buildTraced(t, 10)
	_ = svcs[0].SendRaw(1, msg{100})
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tr.WriteSummary(&sb)
	if !strings.Contains(sb.String(), "trace.msg") {
		t.Fatalf("summary missing type:\n%s", sb.String())
	}
	sb.Reset()
	tr.WriteEvents(&sb)
	if !strings.Contains(sb.String(), "tx") && !strings.Contains(sb.String(), "->") {
		t.Fatalf("event log missing direction:\n%s", sb.String())
	}
}

func TestDirString(t *testing.T) {
	if Out.String() != "tx" || In.String() != "rx" || Dir(9).String() != "??" {
		t.Fatal("Dir strings wrong")
	}
}

func TestBytesAccessor(t *testing.T) {
	k, tr, svcs := buildTraced(t, 0)
	_ = svcs[0].SendRaw(1, msg{100})
	_ = svcs[0].SendRaw(1, msg{50})
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.Bytes() {
		if v != 150 {
			t.Fatalf("bytes = %d, want 150", v)
		}
	}
}
