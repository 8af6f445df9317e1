package sts

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"sync"
	"testing"

	"innercircle/internal/crypto/keyedmac"
	"innercircle/internal/crypto/nsl"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// memoScheme is one beacon authenticator under test: auths returns the
// authenticators of nodes 0..n-1, each signing as its node, from key
// material fixed by the scheme.
type memoScheme struct {
	name  string
	auths func(t testing.TB, n int) []Auth
	// padded says the signature carries bytes the verdict ignores.
	padded bool
}

// memoSchemes are both authenticators: RSAAuth over seeded 512-bit keys and
// SimAuth emulating their 64-byte wire size.
var memoSchemes = []memoScheme{
	{name: "rsa512", auths: func(t testing.TB, n int) []Auth {
		keys := testKeys(t, n, mrand.New(mrand.NewSource(11)))
		dir := nsl.DirectoryMap{}
		for i, kp := range keys {
			dir[int64(i)] = kp.Pub
		}
		auths := make([]Auth, n)
		for i := range auths {
			auths[i] = NewRSAAuth(keys[i], dir)
		}
		return auths
	}},
	{name: "sim", padded: true, auths: func(t testing.TB, n int) []Auth {
		keys := NewSimKeys([]byte("sts-11"), n)
		auths := make([]Auth, n)
		for i := range auths {
			auths[i] = NewSimAuth(keys, link.NodeID(i), 64)
		}
		return auths
	}},
}

// TestBeaconMemoDoesNotChangeViews runs each topology twice from the same
// keys — every beacon verified afresh, then through a shared memo — and
// requires the same counters and the same one- and two-hop views at every
// node at several instants, while signature checks actually performed drop
// to at most one per beacon sent. It does so for both authenticators.
func TestBeaconMemoDoesNotChangeViews(t *testing.T) {
	topologies := []struct {
		name string
		pts  []geo.Point
		mobs func() []mobility.Model
	}{
		{name: "line", pts: line(4)},
		{name: "clique", pts: []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}, {X: 50, Y: 50}}},
		{name: "two-hop arrival", pts: []geo.Point{{X: 0}, {X: 200}, {X: 5000}}, mobs: func() []mobility.Model {
			return []mobility.Model{
				mobility.Static(geo.Point{X: 0}),
				mobility.Static(geo.Point{X: 200}),
				&stepMove{at: 10, before: geo.Point{X: 5000}, after: geo.Point{X: 400}},
			}
		}},
	}
	for _, top := range topologies {
		t.Run(top.name, func(t *testing.T) {
			keys := testKeys(t, len(top.pts), mrand.New(mrand.NewSource(7)))
			simKeys := NewSimKeys([]byte("sts-7"), len(top.pts))
			schemes := []struct {
				name string
				auth authFactory
			}{
				{"rsa512", rsaAuth},
				{"sim", func(id link.NodeID, _ []*nsl.KeyPair, _ nsl.DirectoryMap) Auth {
					return NewSimAuth(simKeys, id, 64)
				}},
			}
			for _, sc := range schemes {
				t.Run(sc.name, func(t *testing.T) {
					build := func(memo *Memo) *harness {
						var mobs []mobility.Model
						if top.mobs != nil {
							mobs = top.mobs()
						}
						return buildSTSKeyed(t, top.pts, DefaultConfig(), mobs, keys, sc.auth, memo)
					}
					checkMemoKeepsViews(t, build(nil), build(NewMemo(len(top.pts))))
				})
			}
		})
	}
}

// checkMemoKeepsViews runs two harnesses of one topology, plain verifying
// every beacon afresh and memoized through a shared memo, and compares
// them at several instants.
func checkMemoKeepsViews(t *testing.T, plain, memoized *harness) {
	t.Helper()
	for _, at := range []sim.Time{1, 3, 6, 9, 11.5, 14} {
		if err := plain.k.Run(at); err != nil {
			t.Fatal(err)
		}
		if err := memoized.k.Run(at); err != nil {
			t.Fatal(err)
		}
		for i := range plain.svcs {
			if err := sameService(plain.svcs[i], memoized.svcs[i], len(plain.svcs)); err != nil {
				t.Fatalf("t=%v node %d: %s", at, i, err)
			}
		}
	}
	var sent, checked, hits, misses uint64
	for i, m := range memoized.svcs {
		sent += m.Stats.BeaconsSent
		// No beacon here has a spoofed source, so every one heard
		// reached the signature check.
		checked += m.Stats.BeaconsReceived + m.Stats.BeaconsRejected
		hits += m.Stats.VerifyMemoHits
		misses += m.Stats.VerifyMemoMisses
		if p := plain.svcs[i].Stats; p.VerifyMemoHits != 0 || p.VerifyMemoMisses != 0 {
			t.Fatalf("node %d counted memo traffic without a memo: %+v", i, p)
		}
	}
	if hits+misses != checked {
		t.Fatalf("memo hits %d + misses %d != %d beacons checked", hits, misses, checked)
	}
	if misses > sent {
		t.Fatalf("%d signature checks performed for %d beacons sent", misses, sent)
	}
	if hits == 0 {
		t.Fatalf("no beacon was heard twice (%d checked, %d sent): the topology does not exercise the memo", checked, sent)
	}
	t.Logf("%d beacons sent, %d checked: %d real verifications, %d answered by the memo", sent, checked, misses, hits)
}

// sameService compares a plain service with its memoized twin: counters
// other than the memo's own, and the one- and two-hop views over nodes
// 0..n-1. It returns the first difference, nil if none.
func sameService(p, m *Service, n int) error {
	ps, ms := p.Stats, m.Stats
	ms.VerifyMemoHits, ms.VerifyMemoMisses = 0, 0
	if ps != ms {
		return fmt.Errorf("stats %+v without memo, %+v with", ps, ms)
	}
	if !slices.Equal(p.Neighbors(), m.Neighbors()) {
		return fmt.Errorf("neighbours %v without memo, %v with", p.Neighbors(), m.Neighbors())
	}
	for q := range link.NodeID(n) {
		if !slices.Equal(p.NeighborsOf(q), m.NeighborsOf(q)) {
			return fmt.Errorf("NeighborsOf(%d) %v without memo, %v with", q, p.NeighborsOf(q), m.NeighborsOf(q))
		}
	}
	return nil
}

// memoFixture is three receivers (nodes 1–3) sharing one beacon memo,
// driven by calling onBeacon directly, plus every node's authenticator to
// sign with.
type memoFixture struct {
	auths []Auth
	memo  *Memo
	recv  []*Service
}

func newMemoFixture(t *testing.T, auths []Auth) *memoFixture {
	t.Helper()
	f := &memoFixture{auths: auths, memo: NewMemo(len(auths))}
	cfg := DefaultConfig()
	cfg.Handshake = false
	k := sim.NewKernel()
	if err := k.Run(1); err != nil { // a beacon at t=0 never counts as timely
		t.Fatal(err)
	}
	for _, id := range []link.NodeID{1, 2, 3} {
		svc, err := New(cfg, Deps{ID: id, K: k, Auth: auths[id], Memo: f.memo})
		if err != nil {
			t.Fatal(err)
		}
		f.recv = append(f.recv, svc)
	}
	return f
}

// signed returns a beacon from node `from` carrying its genuine signature.
func (f *memoFixture) signed(from link.NodeID, seq uint64, neigh ...link.NodeID) BeaconMsg {
	b := BeaconMsg{From: from, Seq: seq, Neighbors: neigh, Base: 28}
	b.Sig = f.auths[from].Sign(beaconDigest(nil, b))
	return b
}

func flipSigBit(sig []byte, bit int) []byte {
	out := append([]byte(nil), sig...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// TestBeaconMemoSoundness: the memo answers a check only when its sender,
// digest and signature equal the bytes last found valid for that sender,
// and it stores nothing else, whichever authenticator runs behind it. The
// cases fail, respectively, if the comparison leaves out the digest; if it
// leaves out the signature or the memo stores a rejection; if it leaves out
// the sender; if the memo keeps the service's digest buffer instead of a
// copy; and, for SimAuth, if a padding flip stops verifying.
func TestBeaconMemoSoundness(t *testing.T) {
	cases := []struct {
		name   string
		padded bool // only for schemes whose signatures carry padding
		run    func(t *testing.T, f *memoFixture)
	}{
		{name: "altered neighbour list", run: func(t *testing.T, f *memoFixture) {
			genuine := f.signed(0, 5, 1, 2)
			f.recv[0].onBeacon(0, genuine)
			f.recv[1].onBeacon(0, genuine)
			if f.recv[0].Stats.VerifyMemoMisses != 1 || f.recv[1].Stats.VerifyMemoHits != 1 {
				t.Fatalf("genuine beacon not memoized: %+v then %+v", f.recv[0].Stats, f.recv[1].Stats)
			}
			// Same sender, sequence number and signature, one more
			// neighbour claimed.
			altered := genuine
			altered.Neighbors = []link.NodeID{1, 2, 4}
			f.recv[2].onBeacon(0, altered)
			if st := f.recv[2].Stats; st.BeaconsRejected != 1 || st.BeaconsReceived != 0 || st.VerifyMemoHits != 0 {
				t.Fatalf("altered neighbour list under a memoized signature: %+v", st)
			}
			if f.recv[2].IsLink(0, 4) {
				t.Fatal("forged link entered the two-hop view")
			}
			// The forgery did not evict the genuine entry.
			f.recv[2].onBeacon(0, genuine)
			if st := f.recv[2].Stats; st.BeaconsReceived != 1 || st.VerifyMemoHits != 1 {
				t.Fatalf("genuine beacon after the forgery: %+v", st)
			}
		}},
		{name: "bit-flipped signature", run: func(t *testing.T, f *memoFixture) {
			genuine := f.signed(0, 5, 1, 2)
			corrupt := genuine
			corrupt.Sig = flipSigBit(genuine.Sig, 13)
			// The corrupted copy first, twice: a rejection is never
			// stored, so both checks reach the authenticator.
			f.recv[0].onBeacon(0, corrupt)
			f.recv[1].onBeacon(0, corrupt)
			if a, b := f.recv[0].Stats, f.recv[1].Stats; a.BeaconsRejected != 1 || b.BeaconsRejected != 1 || a.VerifyMemoMisses != 1 || b.VerifyMemoMisses != 1 {
				t.Fatalf("corrupted beacon: %+v then %+v", a, b)
			}
			if ids := f.memo.Senders(); len(ids) != 0 {
				t.Fatalf("memo holds senders %v after two rejections, want none", ids)
			}
			f.recv[0].onBeacon(0, genuine)
			f.recv[1].onBeacon(0, genuine)
			if a, b := f.recv[0].Stats, f.recv[1].Stats; a.BeaconsReceived != 1 || a.VerifyMemoMisses != 2 || b.BeaconsReceived != 1 || b.VerifyMemoHits != 1 {
				t.Fatalf("genuine beacon after its corrupted copy: %+v then %+v", a, b)
			}
			// A memoized acceptance is not served for a corrupted copy, and
			// the corrupted copy does not evict it.
			f.recv[2].onBeacon(0, corrupt)
			if st := f.recv[2].Stats; st.BeaconsRejected != 1 || st.BeaconsReceived != 0 || st.VerifyMemoHits != 0 {
				t.Fatalf("corrupted copy of a memoized beacon: %+v", st)
			}
			f.recv[2].onBeacon(0, genuine)
			if st := f.recv[2].Stats; st.BeaconsReceived != 1 || st.VerifyMemoHits != 1 {
				t.Fatalf("genuine beacon after the corrupted copy: %+v", st)
			}
		}},
		{name: "spoofed sender", run: func(t *testing.T, f *memoFixture) {
			// What faults.Spoof does: node 4 rewrites its own signed beacon
			// to claim node 0's identity and a far-future sequence number.
			own := f.signed(4, 9, 1, 2, 3)
			f.recv[0].onBeacon(4, own)
			forged := own
			forged.From = 0
			forged.Seq += 1 << 32
			for i, r := range f.recv {
				r.onBeacon(0, forged)
				if r.IsNeighbor(0) {
					t.Fatal("spoofed identity became a neighbour")
				}
				want := uint64(1)
				if i == 0 {
					want = 2 // it also checked node 4's own beacon
				}
				if st := r.Stats; st.VerifyMemoHits != 0 || st.VerifyMemoMisses != want {
					t.Fatalf("receiver %d: spoofed beacon answered from the memo: %+v", i, st)
				}
			}
			// The sender ID is part of the comparison: the very bytes
			// memoized as valid for node 4 are not answered for node 0.
			dig := beaconDigest(nil, own)
			if f.recv[1].verify(0, dig, own.Sig) {
				t.Fatal("node 4's signature verified for node 0")
			}
			if !f.recv[1].verify(4, dig, own.Sig) || f.recv[1].Stats.VerifyMemoHits != 1 {
				t.Fatalf("genuine signature for node 4 again: %+v", f.recv[1].Stats)
			}
			if f.recv[1].verify(99, dig, own.Sig) || f.recv[1].verify(-1, dig, own.Sig) {
				t.Fatal("signature verified for a node without a key")
			}
		}},
		{name: "borrowed digest", run: func(t *testing.T, f *memoFixture) {
			// One receiver, so one digest buffer: the second beacon's digest
			// is built in the storage the first one's was checked in.
			first, second := f.signed(0, 5, 1, 2), f.signed(0, 6, 1, 2)
			f.recv[0].onBeacon(0, first)
			forged := second
			forged.Sig = first.Sig
			f.recv[0].onBeacon(0, forged)
			if st := f.recv[0].Stats; st.BeaconsReceived != 1 || st.BeaconsRejected != 1 || st.VerifyMemoHits != 0 {
				t.Fatalf("first beacon's signature over the second's digest: %+v", st)
			}
			f.recv[1].onBeacon(0, first)
			if st := f.recv[1].Stats; st.BeaconsReceived != 1 || st.VerifyMemoHits != 1 {
				t.Fatalf("first beacon at another receiver: %+v", st)
			}
		}},
		{name: "bit-flipped padding", padded: true, run: func(t *testing.T, f *memoFixture) {
			genuine := f.signed(0, 5, 1, 2)
			padded := genuine
			padded.Sig = flipSigBit(genuine.Sig, 64*8-1)
			// The padding is no part of the verdict but is part of the
			// memo's bytes: each copy that differs from the entry verifies
			// afresh, and verifies.
			f.recv[0].onBeacon(0, padded)
			f.recv[1].onBeacon(0, genuine)
			f.recv[2].onBeacon(0, padded)
			for i, r := range f.recv {
				if st := r.Stats; st.BeaconsReceived != 1 || st.BeaconsRejected != 0 || st.VerifyMemoMisses != 1 {
					t.Fatalf("receiver %d: %+v, want the beacon accepted after one verification", i, st)
				}
			}
			f.recv[0].onBeacon(0, padded)
			if st := f.recv[0].Stats; st.VerifyMemoHits != 1 {
				t.Fatalf("repeat of the last copy found valid: %+v, want a memo hit", st)
			}
		}},
	}
	auths := make([][]Auth, len(memoSchemes))
	for i, sc := range memoSchemes {
		auths[i] = sc.auths(t, 5)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i, sc := range memoSchemes {
				if c.padded && !sc.padded {
					continue
				}
				t.Run(sc.name, func(t *testing.T) { c.run(t, newMemoFixture(t, auths[i])) })
			}
		})
	}
}

// TestSimMemoSoundness: what SimAuth owes the beacon memo. The memo keys a
// verdict on sender, digest and signature, and one memo serves every
// receiver of a shard, so SimAuth's verdict must be a function of exactly
// those bytes: the same at every verifying node, unchanged by earlier
// calls, and, of the signature, depending on the MAC but not the padding.
// Each case asks every node's SimAuth and fails if any answer differs.
func TestSimMemoSoundness(t *testing.T) {
	const n = 5
	keys := NewSimKeys([]byte("sts-11"), n)
	auths := make([]*SimAuth, n)
	for i := range auths {
		auths[i] = NewSimAuth(keys, link.NodeID(i), 64)
	}
	signed := func(from link.NodeID, seq uint64, neigh ...link.NodeID) ([]byte, []byte) {
		dig := beaconDigest(nil, BeaconMsg{From: from, Seq: seq, Neighbors: neigh, Base: 28})
		return dig, auths[from].Sign(dig)
	}
	// verdicts requires every node to return want for one check.
	verdicts := func(t *testing.T, want bool, id link.NodeID, dig, sig []byte) {
		t.Helper()
		for self, a := range auths {
			err := a.Verify(id, dig, sig)
			if err != nil && !errors.Is(err, ErrSimAuthBadSig) {
				t.Fatalf("node %d: unexpected error %v", self, err)
			}
			if (err == nil) != want {
				t.Fatalf("node %d: sender %d verified %v, want %v", self, id, err == nil, want)
			}
		}
	}

	t.Run("altered neighbour list", func(t *testing.T) {
		dig, sig := signed(0, 5, 1, 2)
		verdicts(t, true, 0, dig, sig)
		altered := beaconDigest(nil, BeaconMsg{From: 0, Seq: 5, Neighbors: []link.NodeID{1, 2, 4}, Base: 28})
		verdicts(t, false, 0, altered, sig)
		verdicts(t, true, 0, dig, sig)
	})

	t.Run("bit-flipped MAC", func(t *testing.T) {
		dig, sig := signed(0, 5, 1, 2)
		for bit := range keyedmac.Size * 8 {
			verdicts(t, false, 0, dig, flipSigBit(sig, bit))
		}
		verdicts(t, true, 0, dig, sig)
		verdicts(t, false, 0, dig, sig[:keyedmac.Size-1])
	})

	t.Run("bit-flipped padding", func(t *testing.T) {
		dig, sig := signed(0, 5, 1, 2)
		for bit := keyedmac.Size * 8; bit < len(sig)*8; bit++ {
			verdicts(t, true, 0, dig, flipSigBit(sig, bit))
		}
		verdicts(t, true, 0, dig, sig[:keyedmac.Size])
	})

	t.Run("borrowed digest", func(t *testing.T) {
		first, sig := signed(0, 5, 1, 2)
		second, _ := signed(0, 6, 1, 2)
		// One scratch buffer for both digests, as a Service keeps: the
		// verdict follows the bytes in it, not an earlier call's.
		scratch := append([]byte(nil), first...)
		verdicts(t, true, 0, scratch, sig)
		copy(scratch, second)
		verdicts(t, false, 0, scratch, sig)
		copy(scratch, first)
		verdicts(t, true, 0, scratch, sig)
	})

	t.Run("other sender's key", func(t *testing.T) {
		dig, sig := signed(4, 9, 1, 2, 3)
		verdicts(t, true, 4, dig, sig)
		// Bytes valid under node 4's key are not valid under any other.
		for id := range link.NodeID(n - 1) {
			verdicts(t, false, id, dig, sig)
		}
		verdicts(t, false, n, dig, sig)
		verdicts(t, false, -1, dig, sig)
	})
}

// TestBeaconMemoDoesNotAllocate: once a sender's entry has storage for a
// digest and signature of this size, a memoized check allocates nothing,
// hit or miss, under either authenticator.
func TestBeaconMemoDoesNotAllocate(t *testing.T) {
	for _, sc := range memoSchemes {
		t.Run(sc.name, func(t *testing.T) {
			auths := sc.auths(t, 8)
			svc := newMemoFixture(t, auths).recv[0]
			var digests, sigs [2][]byte
			for i := range digests {
				digests[i] = beaconDigest(nil, BeaconMsg{From: 3, Seq: uint64(9 + i), Neighbors: []link.NodeID{0, 1, 2, 4, 5, 6, 7}})
				sigs[i] = auths[3].Sign(digests[i])
			}
			for _, c := range []struct {
				name string
				next func(i int) int
			}{{"hit", func(int) int { return 0 }}, {"miss", func(i int) int { return i % 2 }}} {
				i, ok := 0, true
				n := testing.AllocsPerRun(100, func() {
					j := c.next(i)
					i++
					ok = ok && svc.verify(3, digests[j], sigs[j])
				})
				if n != 0 || !ok {
					t.Fatalf("memoized check (%s): %.0f allocations per call (want 0), valid %v", c.name, n, ok)
				}
			}
			if st := svc.Stats; st.VerifyMemoHits == 0 || st.VerifyMemoMisses < 100 {
				t.Fatalf("memo counts %+v: the calls did not take both paths", st)
			}
		})
	}
}

// TestShardedAuthSharesOnlyReadOnlyState drives what node.Build sets up
// under sharding: one goroutine per shard, each with a beacon memo of its
// own per scheme, all reading one key directory and one SimAuth key table.
// Run under -race it shows those two shares are read-only.
func TestShardedAuthSharesOnlyReadOnlyState(t *testing.T) {
	const shards, nodes = 4, 6
	cfg := DefaultConfig()
	cfg.Handshake = false
	msg := beaconDigest(nil, BeaconMsg{From: 0, Seq: 1, Neighbors: []link.NodeID{1, 2}})
	auths := make([][]Auth, len(memoSchemes))
	sigs := make([][]byte, len(memoSchemes))
	for i, sc := range memoSchemes {
		auths[i] = sc.auths(t, nodes)
		sigs[i] = auths[i][0].Sign(msg)
	}

	memos := make([][]*Memo, shards)
	var wg sync.WaitGroup
	for s := range memos {
		memos[s] = make([]*Memo, len(memoSchemes))
		for i := range memoSchemes {
			memos[s][i] = NewMemo(nodes)
		}
		wg.Add(1)
		go func(memos []*Memo) {
			defer wg.Done()
			k := sim.NewKernel()
			for i, sc := range memoSchemes {
				for id := link.NodeID(1); id < nodes; id++ {
					svc, err := New(cfg, Deps{ID: id, K: k, Auth: auths[i][id], Memo: memos[i]})
					if err != nil {
						t.Error(err)
						return
					}
					if !svc.verify(0, msg, sigs[i]) {
						t.Errorf("%s beacon rejected", sc.name)
					}
				}
			}
		}(memos[s])
	}
	wg.Wait()
	for s := range memos {
		for i, sc := range memoSchemes {
			if ids := memos[s][i].Senders(); !slices.Equal(ids, []link.NodeID{0}) {
				t.Fatalf("shard %d %s memo holds senders %v, want its own [0]", s, sc.name, ids)
			}
		}
	}
}
