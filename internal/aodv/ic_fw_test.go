package aodv

import (
	"bytes"
	"slices"
	"testing"

	"innercircle/internal/link"
	"innercircle/internal/vote"
)

// TestForwarderSetFirstApprovedOrder: an agreed RREP adds its center and
// its next hop to the route generation's forwarder set once each, in the
// order first approved, and only that generation's check accepts them.
func TestForwarderSetFirstApprovedOrder(t *testing.T) {
	a := &ICAdapter{id: 9, fw: make(map[fwKey][]link.NodeID)}
	agree := func(center, next link.NodeID, seq uint32) {
		rep := RREP{Orig: 0, Dst: 5, DstSeq: seq, HopCount: 1, NextHop: next}
		a.onAgreed(vote.AgreedMsg{Center: center, Value: EncodeRREP(rep)})
	}
	agree(5, 4, 7)
	agree(4, 3, 7)
	agree(4, 3, 7)
	agree(3, 5, 7)
	agree(6, 2, 8)
	if got, want := a.AllowedForwarders(5, 7), []link.NodeID{5, 4, 3}; !slices.Equal(got, want) {
		t.Fatalf("forwarders of (5, 7) = %v, want %v", got, want)
	}
	if got := a.AllowedForwarders(5, 9); got != nil {
		t.Fatalf("forwarders of an unseen generation = %v, want none", got)
	}
	probe := func(center link.NodeID, seq uint32) bool {
		return a.check(center, EncodeRREP(RREP{Orig: 0, Dst: 5, DstSeq: seq, NextHop: 1}))
	}
	if !probe(3, 7) || probe(6, 7) || !probe(6, 8) {
		t.Fatal("check does not follow the per-generation forwarder sets")
	}
	// The returned slice is a copy.
	got := a.AllowedForwarders(5, 7)
	got[0] = 99
	if a.AllowedForwarders(5, 7)[0] != 5 {
		t.Fatal("AllowedForwarders exposed the adapter's own storage")
	}
}

// TestCheckRefusesPaddedRREP: a proposal whose value differs from an
// honest RREP's only in the padding EncodeRREP leaves zero is refused, even
// from the route's destination, so one RREP has exactly one voted value.
func TestCheckRefusesPaddedRREP(t *testing.T) {
	a := &ICAdapter{id: 9, fw: make(map[fwKey][]link.NodeID)}
	honest := EncodeRREP(RREP{Orig: 0, Dst: 5, DstSeq: 7, HopCount: 1, NextHop: 4})
	if !a.check(5, honest) {
		t.Fatal("the destination's honest proposal refused")
	}
	for i := 32; i < len(honest); i++ {
		for _, v := range []byte{1, 0x80, 0xff} {
			padded := bytes.Clone(honest)
			padded[i] = v
			if a.check(5, padded) {
				t.Fatalf("proposal with padding byte %d = %#x accepted", i, v)
			}
		}
	}
	if a.Stats.ChecksAccepted != 1 || a.Stats.ChecksRejected != 24 {
		t.Fatalf("check stats %+v, want 1 accepted and 24 rejected", a.Stats)
	}
}
