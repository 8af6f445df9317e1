package icnet

import (
	"testing"

	"innercircle/internal/link"
	"innercircle/internal/sim"
)

type msg struct {
	kind string
	size int
}

func (m msg) Size() int { return m.size }

func env(from link.NodeID, kind string) link.Env {
	return link.Env{From: from, To: 1, Msg: msg{kind: kind, size: 10}}
}

func TestTemporarySuspicionExpires(t *testing.T) {
	k := sim.NewKernel()
	s := NewSuspicionManager(k, 60)
	s.SuspectTemporary(5, "late ack")
	if !s.Suspected(5) {
		t.Fatal("node not suspected immediately after SuspectTemporary")
	}
	if err := k.Run(59); err != nil {
		t.Fatal(err)
	}
	if !s.Suspected(5) {
		t.Fatal("suspicion expired early")
	}
	if err := k.Run(61); err != nil {
		t.Fatal(err)
	}
	if s.Suspected(5) {
		t.Fatal("temporary suspicion did not expire")
	}
}

func TestPermanentSuspicionPersists(t *testing.T) {
	k := sim.NewKernel()
	s := NewSuspicionManager(k, 60)
	s.SuspectPermanent(3, "signed invalid RREP")
	if err := k.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if !s.Suspected(3) {
		t.Fatal("permanent suspicion expired")
	}
}

func TestTemporaryExtension(t *testing.T) {
	k := sim.NewKernel()
	s := NewSuspicionManager(k, 60)
	s.SuspectTemporary(5, "first")
	if err := k.Run(50); err != nil {
		t.Fatal(err)
	}
	s.SuspectTemporary(5, "second")
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if !s.Suspected(5) {
		t.Fatal("extension did not take effect (should last until 110)")
	}
	if err := k.Run(111); err != nil {
		t.Fatal(err)
	}
	if s.Suspected(5) {
		t.Fatal("extended suspicion did not expire")
	}
}

func TestPermanentOverridesTemporary(t *testing.T) {
	k := sim.NewKernel()
	s := NewSuspicionManager(k, 10)
	s.SuspectTemporary(7, "t")
	s.SuspectPermanent(7, "p")
	s.SuspectTemporary(7, "t again") // must not downgrade
	if err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !s.Suspected(7) {
		t.Fatal("permanent suspicion was downgraded by a later temporary one")
	}
}

func TestSnapshotSorted(t *testing.T) {
	k := sim.NewKernel()
	s := NewSuspicionManager(k, 60)
	s.SuspectPermanent(9, "x")
	s.SuspectPermanent(2, "y")
	s.SuspectTemporary(5, "z")
	got := s.Snapshot()
	want := []link.NodeID{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
	}
	if len(s.Log()) != 3 {
		t.Fatalf("Log has %d entries, want 3", len(s.Log()))
	}
}

func TestInterceptorRedirectsTemplateMatches(t *testing.T) {
	ic := NewInterceptor(nil)
	var redirected []link.Env
	ic.Register(func(e link.Env) bool {
		m, ok := e.Msg.(msg)
		return ok && m.kind == "rrep"
	}, func(e link.Env) { redirected = append(redirected, e) })

	if ic.Outbound(env(1, "rrep")) {
		t.Fatal("matching message was not swallowed")
	}
	if !ic.Outbound(env(1, "data")) {
		t.Fatal("non-matching message was swallowed")
	}
	if len(redirected) != 1 {
		t.Fatalf("redirected %d, want 1", len(redirected))
	}
	if ic.Stats.Redirected != 1 {
		t.Fatalf("stats.Redirected = %d", ic.Stats.Redirected)
	}
}

func TestInterceptorSuppressesSuspectedSenders(t *testing.T) {
	k := sim.NewKernel()
	susp := NewSuspicionManager(k, 60)
	ic := NewInterceptor(susp)
	// Suppression applies only to template-matched messages (the
	// application messages subject to inner-circle checking).
	ic.Register(func(e link.Env) bool {
		m, ok := e.Msg.(msg)
		return ok && m.kind == "rrep"
	}, func(link.Env) {})
	susp.SuspectPermanent(8, "evidence")
	if ic.Inbound(env(8, "rrep")) {
		t.Fatal("template-matched message from suspected node delivered")
	}
	if !ic.Inbound(env(8, "beacon")) {
		t.Fatal("non-matched message from suspected node suppressed (beacons must pass)")
	}
	// A template-matched message no verifier vouches for carries no
	// agreement: it is suppressed as unsigned and its clean sender becomes
	// a permanent suspect, as for an invalid signature.
	if ic.Inbound(env(9, "rrep")) {
		t.Fatal("unvoted template-matched message from clean node delivered")
	}
	if !susp.Suspected(9) {
		t.Fatal("sender of an unvoted template-matched message not suspected")
	}
	if ic.Stats.SuppressedSuspect != 1 || ic.Stats.SuppressedBadSig != 1 {
		t.Fatalf("stats = %+v", ic.Stats)
	}
}

func TestInterceptorSignatureCheck(t *testing.T) {
	k := sim.NewKernel()
	susp := NewSuspicionManager(k, 60)
	ic := NewInterceptor(susp)
	// Messages of kind "agreed-bad" claim agreement but fail verification.
	ic.SetVerifier(func(e link.Env) (bool, bool) {
		m, ok := e.Msg.(msg)
		if !ok {
			return false, false
		}
		switch m.kind {
		case "agreed-good":
			return true, true
		case "agreed-bad":
			return true, false
		default:
			return false, false
		}
	})
	if !ic.Inbound(env(4, "agreed-good")) {
		t.Fatal("valid agreed message suppressed")
	}
	if ic.Inbound(env(4, "agreed-bad")) {
		t.Fatal("invalid agreed message delivered")
	}
	if !ic.Inbound(env(5, "data")) {
		t.Fatal("plain message suppressed")
	}
	// Sending a bad signature is provable evidence: node 4 is now suspect.
	if !susp.Suspected(4) {
		t.Fatal("bad-signature sender not suspected")
	}
	if ic.Stats.SuppressedBadSig != 1 {
		t.Fatalf("stats = %+v", ic.Stats)
	}
}
