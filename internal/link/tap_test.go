package link

import (
	"slices"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/mac"
	"innercircle/internal/sim"
)

// fnTap adapts two functions into a Tap.
type fnTap struct {
	out func(e Env, emit func(Env))
	in  func(e Env, emit func(Env))
}

func (t fnTap) Outbound(e Env, emit func(Env)) {
	if t.out == nil {
		emit(e)
		return
	}
	t.out(e, emit)
}

func (t fnTap) Inbound(e Env, emit func(Env)) {
	if t.in == nil {
		emit(e)
		return
	}
	t.in(e, emit)
}

func TestTapOutboundDropAndDuplicate(t *testing.T) {
	k := sim.NewKernel()
	svcs := buildLinks(k, []geo.Point{{X: 0}, {X: 100}})
	var got []Env
	svcs[1].OnRecv(func(e Env) { got = append(got, e) })

	svcs[0].AddTap(fnTap{out: func(e Env, emit func(Env)) {
		switch e.Msg.(testMsg).body {
		case "drop":
			// swallowed: zero emits
		case "dup":
			emit(e)
			emit(e)
		default:
			emit(e)
		}
	}})

	for _, body := range []string{"drop", "dup", "plain"} {
		if err := svcs[0].Send(svcs[1].ID(), testMsg{body, 50}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, e := range got {
		bodies = append(bodies, e.Msg.(testMsg).body)
	}
	want := []string{"dup", "dup", "plain"}
	if len(bodies) != len(want) {
		t.Fatalf("received %v, want %v", bodies, want)
	}
	for i := range want {
		if bodies[i] != want[i] {
			t.Fatalf("received %v, want %v", bodies, want)
		}
	}
}

func TestTapSeesRawTraffic(t *testing.T) {
	// The filter chain misses SendRaw traffic; the tap must not.
	k := sim.NewKernel()
	svcs := buildLinks(k, []geo.Point{{X: 0}, {X: 100}})
	tapped := 0
	svcs[0].AddTap(fnTap{out: func(e Env, emit func(Env)) {
		tapped++
		emit(e)
	}})
	if err := svcs[0].SendRaw(svcs[1].ID(), testMsg{"raw", 50}); err != nil {
		t.Fatal(err)
	}
	if tapped != 1 {
		t.Fatalf("tap saw %d raw messages, want 1", tapped)
	}
}

func TestTapInboundDeferredEmit(t *testing.T) {
	k := sim.NewKernel()
	svcs := buildLinks(k, []geo.Point{{X: 0}, {X: 100}})
	var at sim.Time
	svcs[1].OnRecv(func(e Env) { at = k.Now() })
	svcs[1].AddTap(fnTap{in: func(e Env, emit func(Env)) {
		// emit stays valid after Inbound returns: hold the message half a
		// second.
		k.ScheduleFire(sim.Duration(0.5), func() { emit(e) })
	}})
	if err := svcs[0].Send(svcs[1].ID(), testMsg{"late", 50}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(2); err != nil {
		t.Fatal(err)
	}
	if at < 0.5 {
		t.Fatalf("delivery at %v, want >= 0.5s (tap-delayed)", at)
	}
}

func TestTapSpoofedSource(t *testing.T) {
	// A tap that rewrites Env.From sends with a forged MAC source; the
	// receiver's envelope names the victim, not the attacker.
	k := sim.NewKernel()
	svcs := buildLinks(k, []geo.Point{{X: 0}, {X: 100}, {X: 200}})
	victim := svcs[2].ID()
	var got []Env
	svcs[1].OnRecv(func(e Env) { got = append(got, e) })
	svcs[0].AddTap(fnTap{out: func(e Env, emit func(Env)) {
		e.From = victim
		emit(e)
	}})
	if err := svcs[0].Send(BroadcastID, testMsg{"spoofed", 50}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].From != victim {
		t.Fatalf("got %+v, want one envelope from victim %d", got, victim)
	}
}

// TestPassThroughTapAllocs: a tap that only forwards adds no allocation to
// a send or a receive — every level's continuation was built once, in
// AddTap. The MAC queue is full first, so the MAC refuses each send
// without allocating and what is counted is the link layer's own cost.
func TestPassThroughTapAllocs(t *testing.T) {
	k := sim.NewKernel()
	s := buildLinks(k, []geo.Point{{X: 0}, {X: 100}})[0]
	msg := Message(testMsg{"x", 50})
	for s.mac.QueueLen() < mac.Default80211().QueueLimit {
		_ = s.SendRaw(1, msg)
	}
	s.OnRecv(func(Env) {})
	pkt := mac.Packet{Src: 1, Dst: mac.Addr(s.ID()), Payload: msg, Bytes: msg.Size()}
	send := func() { _ = s.SendRaw(1, msg) }
	recv := func() { s.recv(pkt) }
	for taps := 0; taps <= 2; taps++ {
		if n := testing.AllocsPerRun(100, send); n != 0 {
			t.Errorf("%d pass-through taps: %.0f allocations per send, want 0", taps, n)
		}
		if n := testing.AllocsPerRun(100, recv); n != 0 {
			t.Errorf("%d pass-through taps: %.0f allocations per receive, want 0", taps, n)
		}
		s.AddTap(fnTap{})
	}
}

// TestTapChainOrder: taps stack upward from the MAC in the order they are
// added. Outbound traffic meets the last-added tap first, inbound traffic
// the first-added one; Send's filters run above every tap.
func TestTapChainOrder(t *testing.T) {
	k := sim.NewKernel()
	svcs := buildLinks(k, []geo.Point{{X: 0}, {X: 100}})
	var log []string
	for _, name := range []string{"a", "b"} {
		svcs[0].AddTap(fnTap{out: func(e Env, emit func(Env)) {
			log = append(log, name+" out")
			emit(e)
		}})
		svcs[1].AddTap(fnTap{in: func(e Env, emit func(Env)) {
			log = append(log, name+" in")
			emit(e)
		}})
	}
	svcs[0].AddFilter(&recordFilter{log: &log})
	svcs[1].OnRecv(func(Env) { log = append(log, "delivered") })
	if err := svcs[0].Send(svcs[1].ID(), testMsg{"m", 50}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	want := []string{"filter out", "b out", "a out", "a in", "b in", "delivered"}
	if !slices.Equal(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// recordFilter logs the outbound filter step and passes everything.
type recordFilter struct{ log *[]string }

func (f *recordFilter) Outbound(Env) bool { *f.log = append(*f.log, "filter out"); return true }
func (f *recordFilter) Inbound(Env) bool  { return true }
