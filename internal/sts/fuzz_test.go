package sts

import (
	"bytes"
	"slices"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

// FuzzBeaconMemoDifferential feeds one fuzzed beacon stream to two pairs of
// receivers, one pair sharing a beacon memo and one verifying every beacon
// afresh, under each authenticator (SimAuth, and RSAAuth over a small
// seeded key set). Each five-byte step of the input is one beacon: its
// receiver and signature mode, its sender ID (some outside the key set),
// sequence number, neighbour list and a parameter. The signature is the
// genuine one, a bit-flipped, padding-flipped, truncated or empty copy,
// another sender's signature over the same bytes or the previous beacon's
// signature; or the step repeats the previous beacon. After every step the
// two pairs must hold the same counters and views, every memoized check
// must be a hit or a miss, and a hit is only allowed for bytes some earlier
// check found valid.
func FuzzBeaconMemoDifferential(f *testing.F) {
	const nodes = 4
	auths := make([][]Auth, len(memoSchemes))
	for i, sc := range memoSchemes {
		auths[i] = sc.auths(f, nodes)
	}
	f.Add([]byte{0, 1, 1, 5, 0, 1, 1, 1, 5, 0, 10, 1, 1, 5, 0})
	f.Add([]byte{2, 0, 3, 2, 77, 0, 0, 3, 2, 0, 4, 0, 3, 2, 0, 1, 0, 3, 2, 0})
	f.Add([]byte{8, 255, 1, 0, 1, 0, 4, 2, 1, 2, 6, 2, 3, 1, 9, 12, 3, 4, 3, 0, 11, 3, 4, 3, 0})
	f.Add([]byte{0, 2, 1, 6, 0, 14, 2, 2, 6, 0, 1, 2, 1, 6, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 5*64 {
			stream = stream[:5*64]
		}
		for i, sc := range memoSchemes {
			t.Run(sc.name, func(t *testing.T) { fuzzMemoStream(t, auths[i], stream) })
		}
	})
}

func fuzzMemoStream(t *testing.T, auths []Auth, stream []byte) {
	nodes := len(auths)
	cfg := DefaultConfig()
	cfg.Handshake = false
	k := sim.NewKernel()
	if err := k.Run(1); err != nil { // a beacon at t=0 never counts as timely
		t.Fatal(err)
	}
	memo := NewMemo(nodes)
	var plain, memoized [2]*Service
	for r := range plain {
		var err error
		if plain[r], err = New(cfg, Deps{ID: link.NodeID(nodes + r), K: k, Auth: auths[0]}); err != nil {
			t.Fatal(err)
		}
		if memoized[r], err = New(cfg, Deps{ID: link.NodeID(nodes + r), K: k, Auth: auths[0], Memo: memo}); err != nil {
			t.Fatal(err)
		}
	}
	// The digest (which starts with the sender ID) and signature of every
	// check found valid.
	type checked struct{ digest, sig string }
	foundValid := map[checked]bool{}
	key := func(b BeaconMsg) checked { return checked{string(beaconDigest(nil, b)), string(b.Sig)} }
	var checks [2]uint64
	var prev BeaconMsg
	for ; len(stream) >= 5; stream = stream[5:] {
		op := stream[:5]
		r := int(op[0] & 1)
		b := BeaconMsg{
			From: link.NodeID(int(int8(op[1])) % (nodes + 2)),
			Seq:  uint64(op[2] % 8),
			Base: cfg.BeaconBaseBytes,
		}
		for j := range int(op[3] % 4) {
			b.Neighbors = append(b.Neighbors, link.NodeID((int(op[3]>>2)+j)%nodes))
		}
		digest := beaconDigest(nil, b)
		signer := (int(b.From)%nodes + nodes) % nodes
		b.Sig = auths[signer].Sign(digest)
		switch param := int(op[4]); (op[0] >> 1) % 8 {
		case 1:
			b.Sig = flipSigBit(b.Sig, param%(8*len(b.Sig)))
		case 2:
			b.Sig = flipSigBit(b.Sig, 8*len(b.Sig)-1)
		case 3:
			b.Sig = b.Sig[:param%len(b.Sig)]
		case 4:
			b.Sig = nil
		case 5:
			b.Sig = auths[param%nodes].Sign(digest)
		case 6:
			if prev.Base != 0 {
				b = prev
			}
		case 7:
			b.Sig = prev.Sig
		}
		prev = b

		hits := memoized[r].Stats.VerifyMemoHits
		plain[r].onBeacon(b.From, b)
		memoized[r].onBeacon(b.From, b)
		checks[r]++
		if memoized[r].Stats.VerifyMemoHits > hits && !foundValid[key(b)] {
			t.Fatalf("beacon %+v answered from the memo, but no check found its bytes valid", b)
		}
		if auths[0].Verify(b.From, beaconDigest(nil, b), b.Sig) == nil {
			foundValid[key(b)] = true
		}
		for i := range plain {
			if err := sameService(plain[i], memoized[i], nodes+2); err != nil {
				t.Fatalf("receiver %d after beacon %+v: %v", i, b, err)
			}
			if st := memoized[i].Stats; st.VerifyMemoHits+st.VerifyMemoMisses != checks[i] {
				t.Fatalf("receiver %d: %d memo hits + %d misses for %d checks", i, st.VerifyMemoHits, st.VerifyMemoMisses, checks[i])
			}
		}
	}
}

// FuzzBeaconNoAlias drives one topology service (node 0) through fuzzed
// neighbour churn and holds every beacon it sends, as taps, the tracer and
// delayed fault copies do. The service builds each beacon's view and
// digest in buffers it reuses, so after the run every held beacon must
// still carry the neighbour list and signature it went out with; its
// digest, recomputed from the held message, must be the one signed at the
// time, and the signature must verify over it. Each two-byte step is one
// event: a neighbour's beacon (sender and listed nodes from the second
// byte), time passing (up to 12.75 s, past ∆STS = 2 s, so neighbours
// expire and scheduled beacons go out), or an out-of-schedule Announce.
func FuzzBeaconNoAlias(f *testing.F) {
	const nodes = 6
	auths := make([][]Auth, len(memoSchemes))
	for i, sc := range memoSchemes {
		auths[i] = sc.auths(f, nodes)
	}
	f.Add([]byte{1, 4, 0, 1, 0, 2, 2, 0, 1, 20, 0, 3, 2, 0, 1, 60, 2, 0})
	f.Add([]byte{1, 4, 0, 0x21, 0, 0x42, 1, 5, 0, 0x63, 1, 5, 2, 0, 0, 0x21, 1, 255, 2, 0})
	f.Add([]byte{1, 2, 0, 1, 0, 2, 0, 3, 0, 4, 2, 0, 1, 10, 0, 1, 2, 0, 1, 30, 2, 0, 0, 2, 1, 50, 2, 0})
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 2*128 {
			steps = steps[:2*128]
		}
		for i, sc := range memoSchemes {
			t.Run(sc.name, func(t *testing.T) { fuzzBeaconNoAlias(t, auths[i], steps) })
		}
	})
}

// heldBeacon is a sent beacon as held by a tap, beside copies of what it
// carried when it was sent.
type heldBeacon struct {
	msg             BeaconMsg
	view, neighbors []link.NodeID
	sig, digest     []byte
}

func fuzzBeaconNoAlias(t *testing.T, auths []Auth, steps []byte) {
	nodes := len(auths)
	cfg := DefaultConfig()
	cfg.Handshake = false
	k := sim.NewKernel()
	m := mac.New(k, radio.NewChannel(k, radio.Default80211()), mobility.Static(geo.Point{}), nil, sim.NewRNG(1), mac.Default80211())
	l := link.NewService(m)
	svc, err := New(cfg, Deps{ID: l.ID(), K: k, Link: l, RNG: sim.NewRNG(2), Auth: auths[0]})
	if err != nil {
		t.Fatal(err)
	}
	var held []heldBeacon
	l.AddTap(sniffTap(func(e link.Env, outbound bool, _ func(link.Env)) {
		if b, ok := e.Msg.(BeaconMsg); ok && outbound {
			held = append(held, heldBeacon{
				msg:       b,
				view:      svc.Neighbors(),
				neighbors: slices.Clone(b.Neighbors),
				sig:       bytes.Clone(b.Sig),
				digest:    bytes.Clone(svc.digest),
			})
		}
	}))
	svc.Start()
	seqs := make([]uint64, nodes)
	for ; len(steps) >= 2; steps = steps[2:] {
		op, arg := steps[0]%3, steps[1]
		switch op {
		case 0:
			from := link.NodeID(1 + int(arg)%(nodes-1))
			seqs[from]++
			b := BeaconMsg{From: from, Seq: seqs[from], Base: cfg.BeaconBaseBytes}
			for id := range link.NodeID(nodes) {
				if id != from && arg>>(3+id%5)&1 != 0 {
					b.Neighbors = append(b.Neighbors, id)
				}
			}
			b.Sig = auths[from].Sign(beaconDigest(nil, b))
			svc.HandleEnv(link.Env{From: from, To: link.BroadcastID, Msg: b})
		case 1:
			if err := k.Run(k.Now() + sim.Duration(arg)*0.05); err != nil {
				t.Fatal(err)
			}
		case 2:
			svc.Announce()
		}
	}
	if len(held) == 0 {
		t.Fatal("the service sent no beacon")
	}
	for i, h := range held {
		b := h.msg
		if !slices.Equal(h.neighbors, h.view) {
			t.Fatalf("beacon %d went out listing %v, but the view was %v", i, h.neighbors, h.view)
		}
		if !slices.Equal(b.Neighbors, h.neighbors) || !bytes.Equal(b.Sig, h.sig) {
			t.Fatalf("held beacon %d now lists %v with signature %x; it was sent listing %v with %x", i, b.Neighbors, b.Sig, h.neighbors, h.sig)
		}
		digest := beaconDigest(nil, b)
		if !bytes.Equal(digest, h.digest) {
			t.Fatalf("held beacon %d digests to %x; %x was signed", i, digest, h.digest)
		}
		if err := auths[0].Verify(b.From, digest, b.Sig); err != nil {
			t.Fatalf("held beacon %d: %v", i, err)
		}
	}
}
