package sts

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"innercircle/internal/link"
)

func TestSimAuthSignVerify(t *testing.T) {
	keys := NewSimKeys([]byte("network-seed"), 8)
	a := NewSimAuth(keys, 3, 64)
	msg := []byte("beacon contents")
	sig := a.Sign(msg)
	if len(sig) != 64 {
		t.Fatalf("sig length = %d, want padded 64", len(sig))
	}
	if a.SigBytes() != 64 {
		t.Fatalf("SigBytes = %d", a.SigBytes())
	}
	// Any node's SimAuth can verify node 3's signature.
	b := NewSimAuth(keys, 7, 64)
	if err := b.Verify(3, msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestSimAuthRejectsForgery(t *testing.T) {
	keys := NewSimKeys([]byte("network-seed"), 8)
	a := NewSimAuth(keys, 3, 64)
	b := NewSimAuth(keys, 7, 64)
	msg := []byte("beacon")
	sig := a.Sign(msg)
	// Wrong claimed identity.
	if err := b.Verify(5, msg, sig); err == nil {
		t.Fatal("signature verified under wrong identity")
	}
	// Tampered message.
	if err := b.Verify(3, []byte("other"), sig); err == nil {
		t.Fatal("signature verified for tampered message")
	}
	// Truncated signature.
	if err := b.Verify(3, msg, sig[:8]); err == nil {
		t.Fatal("short signature accepted")
	}
}

func TestSimAuthMinimumSize(t *testing.T) {
	a := NewSimAuth(NewSimKeys([]byte("s"), 2), 1, 4)
	if a.SigBytes() < 32 {
		t.Fatalf("SigBytes = %d, want >= 32 (HMAC must fit)", a.SigBytes())
	}
}

func TestRSAAndSimAuthInteropWithSTS(t *testing.T) {
	// SimAuth-configured networks behave like RSA ones at the protocol
	// level: discovery in a 3-clique.
	cfg := DefaultConfig()
	cfg.Handshake = false
	h := buildSTSWithSimAuth(t, line(2), cfg)
	if err := h.k.Run(4); err != nil {
		t.Fatal(err)
	}
	if !h.svcs[0].IsNeighbor(1) || !h.svcs[1].IsNeighbor(0) {
		t.Fatal("SimAuth network did not discover neighbours")
	}
	if h.svcs[0].Stats.BeaconsRejected != 0 {
		t.Fatalf("rejected %d beacons, want 0", h.svcs[0].Stats.BeaconsRejected)
	}
}

// TestSimAuthSignatureBytes pins SimAuth's output to the bytes it produced
// before the key table and the stack-resident MAC: beacon signatures travel
// in messages the fault injector flips bits in, so a changed byte moves
// replica results.
func TestSimAuthSignatureBytes(t *testing.T) {
	for _, c := range []struct {
		seed     string
		id       link.NodeID
		msg      string
		sigBytes int
		want     string
	}{
		{"sts-1", 0, "", 64, "1e6349f2417069c25ef04e47f3fbf1b68349fd20bd7ded279faacd4c2bc2cc890000000000000000000000000000000000000000000000000000000000000000"},
		{"sts-1", 7, "beacon contents", 64, "ac9f8c58e15cb466f84b266083759a57df26be2cb4d4d835963b7e9786e627d60000000000000000000000000000000000000000000000000000000000000000"},
		{"network-seed", 3, "beacon contents", 32, "5aff2c1657838e6ceecd4eb475c36900c8a81bae33d6aeafdeb0fcec99b4f03e"},
		{"sts-42", 99999, "\x00\x01\x02\x03\x04\x05\x06\a", 40, "ed3209dd8bebba9a2ccb79e90ffb22f51a7d68a53c91281fe53ca9b7a62914000000000000000000"},
		{"s", 1, "x", 4, "690d209fad3131eea16456af9729989acfe0fe6b1e73124e472b105a7dbd618b"},
		{"", 12, "empty seed", 64, "575adda62e8c84143aae2edff659509c8081fe3903cc837bdfa872d5fe6a48840000000000000000000000000000000000000000000000000000000000000000"},
	} {
		keys := NewSimKeys([]byte(c.seed), int(c.id)+1)
		got := hex.EncodeToString(NewSimAuth(keys, c.id, c.sigBytes).Sign([]byte(c.msg)))
		if got != c.want {
			t.Errorf("seed %q node %d msg %q: signature %s, want %s", c.seed, c.id, c.msg, got, c.want)
		}
	}
}

func TestSimAuthVerifyDoesNotAllocate(t *testing.T) {
	keys := NewSimKeys([]byte("sts-1"), 8)
	msg := beaconDigest(nil, BeaconMsg{From: 3, Seq: 9, Neighbors: []link.NodeID{0, 1, 2, 4, 5, 6, 7}})
	sig := NewSimAuth(keys, 3, 64).Sign(msg)
	b := NewSimAuth(keys, 7, 64)
	var err error
	if n := testing.AllocsPerRun(100, func() { err = b.Verify(3, msg, sig) }); n != 0 || err != nil {
		t.Fatalf("Verify: %.0f allocations per call (want 0), err %v", n, err)
	}
}

// TestSimAuthIgnoresPadding: only the MAC is checked. The fault injector
// flips a uniformly chosen bit of the whole signature; a flip that lands in
// the padding has always verified, and replica results depend on that.
func TestSimAuthIgnoresPadding(t *testing.T) {
	keys := NewSimKeys([]byte("sts-1"), 8)
	msg := []byte("beacon")
	sig := NewSimAuth(keys, 3, 64).Sign(msg)
	b := NewSimAuth(keys, 7, 64)
	for _, bit := range []int{sha256.Size * 8, 64*8 - 1} {
		if err := b.Verify(3, msg, flipSigBit(sig, bit)); err != nil {
			t.Errorf("bit %d (padding) flipped: %v, want accepted", bit, err)
		}
	}
	for _, bit := range []int{0, sha256.Size*8 - 1} {
		if err := b.Verify(3, msg, flipSigBit(sig, bit)); err == nil {
			t.Errorf("bit %d (MAC) flipped: accepted", bit)
		}
	}
}

func TestSimAuthUnknownNode(t *testing.T) {
	keys := NewSimKeys([]byte("sts-1"), 4)
	msg := []byte("beacon")
	sig := NewSimAuth(keys, 3, 64).Sign(msg)
	for _, id := range []link.NodeID{-1, 4, link.BroadcastID} {
		if err := NewSimAuth(keys, 0, 64).Verify(id, msg, sig); err == nil {
			t.Errorf("beacon verified for node %d, which has no key", id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSimAuth accepted a node outside the key table")
		}
	}()
	NewSimAuth(keys, 4, 64)
}
