package sts

import (
	"errors"
	mrand "math/rand"
	"slices"
	"sync"
	"testing"

	"innercircle/internal/crypto/nsl"
	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// TestBeaconMemoDoesNotChangeViews runs each topology twice from the same
// keys — every beacon verified afresh, then through a shared memo — and
// requires the same counters and the same one- and two-hop views at every
// node at several instants, while signature checks actually performed drop
// to at most one per beacon sent. It does so for both authenticators:
// RSAAuth with a sigcache memo, SimAuth with a SimMemo.
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
			// Each scheme returns the authenticators of one harness: with
			// memoized set, all of them verify through one shared memo.
			schemes := []struct {
				name string
				auth func(memoized bool) authFactory
			}{
				{"rsa512", func(memoized bool) authFactory {
					if !memoized {
						return rsaAuths(nil)
					}
					return rsaAuths(sigcache.New(sigcache.DefaultCap))
				}},
				{"sim", func(memoized bool) authFactory {
					var memo *SimMemo
					if memoized {
						memo = NewSimMemo(simKeys)
					}
					return func(id link.NodeID, _ []*nsl.KeyPair, _ nsl.Directory) BeaconAuth {
						return NewSimAuth(simKeys, id, 64, memo)
					}
				}},
			}
			for _, sc := range schemes {
				t.Run(sc.name, func(t *testing.T) {
					build := func(memoized bool) *harness {
						var mobs []mobility.Model
						if top.mobs != nil {
							mobs = top.mobs()
						}
						return buildSTSKeyed(t, top.pts, DefaultConfig(), mobs, keys, sc.auth(memoized))
					}
					checkMemoKeepsViews(t, build(false), build(true))
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
			p, m := plain.svcs[i], memoized.svcs[i]
			ps, ms := p.Stats, m.Stats
			ms.VerifyMemoHits, ms.VerifyMemoMisses = 0, 0
			if ps != ms {
				t.Fatalf("t=%v node %d: stats %+v without memo, %+v with", at, i, ps, ms)
			}
			if !slices.Equal(p.Neighbors(), m.Neighbors()) {
				t.Fatalf("t=%v node %d: neighbours %v without memo, %v with", at, i, p.Neighbors(), m.Neighbors())
			}
			for q := range plain.svcs {
				if !slices.Equal(p.NeighborsOf(link.NodeID(q)), m.NeighborsOf(link.NodeID(q))) {
					t.Fatalf("t=%v node %d: NeighborsOf(%d) %v without memo, %v with",
						at, i, q, p.NeighborsOf(link.NodeID(q)), m.NeighborsOf(link.NodeID(q)))
				}
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

// memoFixture is three receivers and one signer sharing a directory and a
// beacon memo, driven by calling onBeacon directly.
type memoFixture struct {
	keys []*nsl.KeyPair
	dir  nsl.DirectoryMap
	memo *sigcache.Cache
	recv []*Service
}

func newMemoFixture(t *testing.T) *memoFixture {
	t.Helper()
	f := &memoFixture{keys: testKeys(t, 5, mrand.New(mrand.NewSource(11))), dir: nsl.DirectoryMap{}, memo: sigcache.New(sigcache.DefaultCap)}
	for i, kp := range f.keys {
		f.dir[int64(i)] = kp.Pub
	}
	cfg := DefaultConfig()
	cfg.Handshake = false
	k := sim.NewKernel()
	if err := k.Run(1); err != nil { // a beacon at t=0 never counts as timely
		t.Fatal(err)
	}
	for _, id := range []link.NodeID{1, 2, 3} {
		svc, err := New(cfg, Deps{ID: id, K: k, Auth: NewRSAAuth(f.keys[id], f.dir, f.memo)})
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
	b.Sig = f.keys[from].Sign(beaconDigest(nil, b))
	return b
}

func flipSigBit(sig []byte, bit int) []byte {
	out := append([]byte(nil), sig...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// TestBeaconMemoSoundness: a memoized verdict is served only for the exact
// (verifying key, digest, signature) it was computed for. Each part fails
// if the memo key leaves out, respectively, the digest, the signature or
// the key.
func TestBeaconMemoSoundness(t *testing.T) {
	t.Run("altered neighbour list", func(t *testing.T) {
		f := newMemoFixture(t)
		genuine := f.signed(0, 5, 1, 2)
		f.recv[0].onBeacon(0, genuine)
		f.recv[1].onBeacon(0, genuine)
		if f.recv[0].Stats.VerifyMemoMisses != 1 || f.recv[1].Stats.VerifyMemoHits != 1 {
			t.Fatalf("genuine beacon not memoized: %+v then %+v", f.recv[0].Stats, f.recv[1].Stats)
		}
		// Same sender, sequence number and signature bytes, one more
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
		// The receiver that rejected the forgery still accepts the genuine
		// beacon, from the memo.
		f.recv[2].onBeacon(0, genuine)
		if st := f.recv[2].Stats; st.BeaconsReceived != 1 || st.VerifyMemoHits != 1 {
			t.Fatalf("genuine beacon after the forgery: %+v", st)
		}
	})

	t.Run("bit-flipped signature", func(t *testing.T) {
		f := newMemoFixture(t)
		// Corrupted copy first: its negative verdict is memoized and must
		// not be served for the genuine signature.
		genuine := f.signed(0, 5, 1, 2)
		corrupt := genuine
		corrupt.Sig = flipSigBit(genuine.Sig, 13)
		f.recv[0].onBeacon(0, corrupt)
		f.recv[1].onBeacon(0, corrupt)
		if a, b := f.recv[0].Stats, f.recv[1].Stats; a.BeaconsRejected != 1 || b.BeaconsRejected != 1 || a.VerifyMemoMisses != 1 || b.VerifyMemoHits != 1 {
			t.Fatalf("negative verdict not memoized: %+v then %+v", a, b)
		}
		f.recv[0].onBeacon(0, genuine)
		if st := f.recv[0].Stats; st.BeaconsReceived != 1 || st.VerifyMemoMisses != 2 {
			t.Fatalf("genuine beacon after its corrupted copy: %+v", st)
		}
		// And the other order: a memoized acceptance is not served for a
		// corrupted copy.
		next := f.signed(0, 6, 1, 2)
		f.recv[2].onBeacon(0, next)
		corrupt = next
		corrupt.Sig = flipSigBit(next.Sig, 200)
		f.recv[1].onBeacon(0, corrupt)
		if st := f.recv[1].Stats; st.BeaconsRejected != 2 || st.BeaconsReceived != 0 {
			t.Fatalf("corrupted copy of a memoized beacon accepted: %+v", st)
		}
	})

	t.Run("spoofed sender", func(t *testing.T) {
		f := newMemoFixture(t)
		// What faults.Spoof does: node 4 rewrites its own signed beacon to
		// claim node 0's identity and a far-future sequence number.
		own := f.signed(4, 9, 1, 2, 3)
		f.recv[0].onBeacon(4, own)
		forged := own
		forged.From = 0
		forged.Seq += 1 << 32
		for _, r := range f.recv {
			r.onBeacon(0, forged)
			if r.IsNeighbor(0) {
				t.Fatal("spoofed identity became a neighbour")
			}
		}
		if st := f.recv[1].Stats; st.BeaconsRejected != 1 || st.VerifyMemoHits != 1 {
			t.Fatalf("spoofed beacon's rejection not memoized: %+v", st)
		}
		// The verifying key is part of the memo key: bytes memoized as
		// valid under node 4's key are not valid under node 0's.
		auth := NewRSAAuth(f.keys[1], f.dir, f.memo)
		dig := beaconDigest(nil, own)
		if err := auth.Verify(4, dig, own.Sig); err != nil {
			t.Fatalf("genuine signature under its own key: %v", err)
		}
		if err := auth.Verify(0, dig, own.Sig); !errors.Is(err, nsl.ErrBadSig) {
			t.Fatalf("node 4's signature under node 0's key: %v, want %v", err, nsl.ErrBadSig)
		}
		if err := auth.Verify(99, dig, own.Sig); err == nil {
			t.Fatal("signature verified for a node the directory does not know")
		}
	})
}

// simMemoFixture is three SimAuth receivers sharing one SimMemo, driven by
// calling onBeacon directly.
type simMemoFixture struct {
	keys *SimKeys
	memo *SimMemo
	recv []*Service
}

func newSimMemoFixture(t *testing.T) *simMemoFixture {
	t.Helper()
	f := &simMemoFixture{keys: NewSimKeys([]byte("sts-11"), 5)}
	f.memo = NewSimMemo(f.keys)
	cfg := DefaultConfig()
	cfg.Handshake = false
	k := sim.NewKernel()
	if err := k.Run(1); err != nil { // a beacon at t=0 never counts as timely
		t.Fatal(err)
	}
	for _, id := range []link.NodeID{1, 2, 3} {
		svc, err := New(cfg, Deps{ID: id, K: k, Auth: NewSimAuth(f.keys, id, 64, f.memo)})
		if err != nil {
			t.Fatal(err)
		}
		f.recv = append(f.recv, svc)
	}
	return f
}

// signed returns a beacon from node `from` carrying its genuine MAC.
func (f *simMemoFixture) signed(from link.NodeID, seq uint64, neigh ...link.NodeID) BeaconMsg {
	b := BeaconMsg{From: from, Seq: seq, Neighbors: neigh, Base: 28}
	b.Sig = NewSimAuth(f.keys, from, 64, nil).Sign(beaconDigest(nil, b))
	return b
}

// TestSimMemoSoundness: the SimAuth memo answers a check only when its
// sender, digest and MAC equal the bytes last found valid for that sender,
// and it stores nothing else. Each part fails if the comparison leaves
// out, respectively, the digest, the MAC or the sender; if the memo stores
// a negative verdict; or if it keeps the caller's digest buffer instead of
// a copy.
func TestSimMemoSoundness(t *testing.T) {
	t.Run("altered neighbour list", func(t *testing.T) {
		f := newSimMemoFixture(t)
		genuine := f.signed(0, 5, 1, 2)
		f.recv[0].onBeacon(0, genuine)
		f.recv[1].onBeacon(0, genuine)
		if f.recv[0].Stats.VerifyMemoMisses != 1 || f.recv[1].Stats.VerifyMemoHits != 1 {
			t.Fatalf("genuine beacon not memoized: %+v then %+v", f.recv[0].Stats, f.recv[1].Stats)
		}
		// Same sender, sequence number and MAC, one more neighbour claimed.
		altered := genuine
		altered.Neighbors = []link.NodeID{1, 2, 4}
		f.recv[2].onBeacon(0, altered)
		if st := f.recv[2].Stats; st.BeaconsRejected != 1 || st.BeaconsReceived != 0 || st.VerifyMemoHits != 0 {
			t.Fatalf("altered neighbour list under a memoized MAC: %+v", st)
		}
		if f.recv[2].IsLink(0, 4) {
			t.Fatal("forged link entered the two-hop view")
		}
		// The forgery did not evict the genuine entry.
		f.recv[2].onBeacon(0, genuine)
		if st := f.recv[2].Stats; st.BeaconsReceived != 1 || st.VerifyMemoHits != 1 {
			t.Fatalf("genuine beacon after the forgery: %+v", st)
		}
	})

	t.Run("bit-flipped MAC", func(t *testing.T) {
		f := newSimMemoFixture(t)
		genuine := f.signed(0, 5, 1, 2)
		corrupt := genuine
		corrupt.Sig = flipSigBit(genuine.Sig, 13)
		// The corrupted copy first, twice: a rejection is never stored, so
		// both checks compute the MAC.
		f.recv[0].onBeacon(0, corrupt)
		f.recv[1].onBeacon(0, corrupt)
		if a, b := f.recv[0].Stats, f.recv[1].Stats; a.BeaconsRejected != 1 || b.BeaconsRejected != 1 || a.VerifyMemoMisses != 1 || b.VerifyMemoMisses != 1 {
			t.Fatalf("corrupted beacon: %+v then %+v", a, b)
		}
		if n := len(f.memo.Senders()); n != 0 {
			t.Fatalf("memo holds %d entries after two rejections, want none", n)
		}
		f.recv[0].onBeacon(0, genuine)
		f.recv[1].onBeacon(0, genuine)
		if a, b := f.recv[0].Stats, f.recv[1].Stats; a.BeaconsReceived != 1 || a.VerifyMemoMisses != 2 || b.BeaconsReceived != 1 || b.VerifyMemoHits != 1 {
			t.Fatalf("genuine beacon after its corrupted copy: %+v then %+v", a, b)
		}
		// A memoized acceptance is not served for a corrupted copy, and the
		// corrupted copy does not evict it.
		f.recv[2].onBeacon(0, corrupt)
		if st := f.recv[2].Stats; st.BeaconsRejected != 1 || st.BeaconsReceived != 0 || st.VerifyMemoHits != 0 {
			t.Fatalf("corrupted copy of a memoized beacon: %+v", st)
		}
		f.recv[2].onBeacon(0, genuine)
		if st := f.recv[2].Stats; st.BeaconsReceived != 1 || st.VerifyMemoHits != 1 {
			t.Fatalf("genuine beacon after the corrupted copy: %+v", st)
		}
	})

	t.Run("bit-flipped padding", func(t *testing.T) {
		f := newSimMemoFixture(t)
		genuine := f.signed(0, 5, 1, 2)
		padded := genuine
		padded.Sig = flipSigBit(genuine.Sig, 64*8-1)
		// The padding is no part of the verdict, so it is no part of the
		// key either: a flipped copy verifies afresh and from the memo.
		f.recv[0].onBeacon(0, padded)
		f.recv[1].onBeacon(0, genuine)
		f.recv[2].onBeacon(0, padded)
		for i, r := range f.recv {
			if st := r.Stats; st.BeaconsReceived != 1 || st.BeaconsRejected != 0 {
				t.Fatalf("receiver %d: %+v, want the beacon accepted", i, st)
			}
		}
		if f.recv[0].Stats.VerifyMemoMisses != 1 || f.recv[1].Stats.VerifyMemoHits != 1 || f.recv[2].Stats.VerifyMemoHits != 1 {
			t.Fatalf("padding flip changed the memo's answers: %+v, %+v, %+v", f.recv[0].Stats, f.recv[1].Stats, f.recv[2].Stats)
		}
	})

	t.Run("other sender's key", func(t *testing.T) {
		f := newSimMemoFixture(t)
		auth := NewSimAuth(f.keys, 1, 64, f.memo)
		own := f.signed(4, 9, 1, 2, 3)
		dig := beaconDigest(nil, own)
		if err := auth.Verify(4, dig, own.Sig); err != nil {
			t.Fatalf("genuine MAC under its own key: %v", err)
		}
		// Bytes memoized as valid under node 4's key are not valid under
		// node 0's.
		if err := auth.Verify(0, dig, own.Sig); !errors.Is(err, ErrSimAuthBadSig) {
			t.Fatalf("node 4's MAC under node 0's key: %v, want %v", err, ErrSimAuthBadSig)
		}
		if err := auth.Verify(4, dig, own.Sig); err != nil || auth.stats.VerifyMemoHits != 1 {
			t.Fatalf("genuine MAC again: %v, %d memo hits", err, auth.stats.VerifyMemoHits)
		}
	})

	t.Run("borrowed digest", func(t *testing.T) {
		f := newSimMemoFixture(t)
		auth := NewSimAuth(f.keys, 1, 64, f.memo)
		first, second := f.signed(0, 5, 1, 2), f.signed(0, 6, 1, 2)
		// One scratch buffer for both digests, as a Service keeps.
		scratch := beaconDigest(nil, first)
		if err := auth.Verify(0, scratch, first.Sig); err != nil {
			t.Fatal(err)
		}
		scratch = beaconDigest(scratch[:0], second)
		if err := auth.Verify(0, scratch, first.Sig); !errors.Is(err, ErrSimAuthBadSig) {
			t.Fatalf("first beacon's MAC over the second's digest: %v, want %v", err, ErrSimAuthBadSig)
		}
		scratch = beaconDigest(scratch[:0], first)
		if err := auth.Verify(0, scratch, first.Sig); err != nil || auth.stats.VerifyMemoHits != 1 {
			t.Fatalf("first beacon again: %v, %d memo hits", err, auth.stats.VerifyMemoHits)
		}
	})

	t.Run("other key table", func(t *testing.T) {
		f := newSimMemoFixture(t)
		defer func() {
			if recover() == nil {
				t.Error("NewSimAuth accepted a memo built for another key table")
			}
		}()
		NewSimAuth(NewSimKeys([]byte("sts-12"), 5), 1, 64, f.memo)
	})
}

// TestShardedAuthSharesOnlyReadOnlyState drives what node.Build sets up
// under sharding: one goroutine per shard, each with beacon memos of its
// own (a sigcache and a SimMemo), all reading one key directory and one
// SimAuth key table. Run under
// -race it shows those two shares are read-only.
func TestShardedAuthSharesOnlyReadOnlyState(t *testing.T) {
	const shards, nodes = 4, 6
	keys := testKeys(t, nodes, mrand.New(mrand.NewSource(3)))
	dir := nsl.DirectoryMap{}
	for i, kp := range keys {
		dir[int64(i)] = kp.Pub
	}
	simKeys := NewSimKeys([]byte("sts-3"), nodes)
	msg := beaconDigest(nil, BeaconMsg{From: 0, Seq: 1, Neighbors: []link.NodeID{1, 2}})
	rsaSig := NewRSAAuth(keys[0], dir, nil).Sign(msg)
	simSig := NewSimAuth(simKeys, 0, 64, nil).Sign(msg)

	memos := make([]*sigcache.Cache, shards)
	simMemos := make([]*SimMemo, shards)
	var wg sync.WaitGroup
	for s := range memos {
		memos[s] = sigcache.New(sigcache.DefaultCap)
		simMemos[s] = NewSimMemo(simKeys)
		wg.Add(1)
		go func(memo *sigcache.Cache, simMemo *SimMemo) {
			defer wg.Done()
			for id := link.NodeID(1); id < nodes; id++ {
				if err := NewRSAAuth(keys[id], dir, memo).Verify(0, msg, rsaSig); err != nil {
					t.Errorf("RSA beacon: %v", err)
				}
				if err := NewSimAuth(simKeys, id, 64, simMemo).Verify(0, msg, simSig); err != nil {
					t.Errorf("SimAuth beacon: %v", err)
				}
			}
		}(memos[s], simMemos[s])
	}
	wg.Wait()
	for s, memo := range memos {
		if memo.Len() != 1 {
			t.Fatalf("shard %d memo holds %d verdicts, want its own 1", s, memo.Len())
		}
		if n := len(simMemos[s].Senders()); n != 1 {
			t.Fatalf("shard %d SimAuth memo holds %d entries, want its own 1", s, n)
		}
	}
}
