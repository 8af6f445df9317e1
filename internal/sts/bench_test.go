package sts

import (
	"testing"

	"innercircle/internal/crypto/nsl"
	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// benchFanout is how many neighbours hear one beacon, and how many
// neighbours a beacon lists: the mean degree of the paper's deployments.
const benchFanout = 10

func benchNeighbors() []link.NodeID {
	n := make([]link.NodeID, benchFanout)
	for i := range n {
		n[i] = link.NodeID(i + 1)
	}
	return n
}

// BenchmarkBeaconAuth times one receiver's check of one beacon in the
// steady state of a deployment: every beacon is checked by benchFanout
// receivers in a row, so with a memo one check in benchFanout is a real
// verification and the rest are memo hits. The RSA memo is kept smaller
// than the beacon pool, and the SimAuth memo holds one beacon per sender,
// so a beacon's verdict is gone by the time the pool comes round again —
// as it is in a replica, where beacons never repeat. sim-fresh is SimAuth
// without a memo, the reference.
func BenchmarkBeaconAuth(b *testing.B) {
	const pool = 64
	digests := make([][]byte, pool)
	for i := range digests {
		digests[i] = beaconDigest(nil, BeaconMsg{From: 0, Seq: uint64(i + 1), Neighbors: benchNeighbors()})
	}
	run := func(b *testing.B, signer, verifier BeaconAuth) {
		sigs := make([][]byte, pool)
		for i := range sigs {
			sigs[i] = signer.Sign(digests[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i / benchFanout % pool
			if err := verifier.Verify(0, digests[j], sigs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rsa512", func(b *testing.B) {
		keys := testKeys(b, 2, nil)
		dir := nsl.DirectoryMap{0: keys[0].Pub, 1: keys[1].Pub}
		memo := sigcache.New(pool / 4)
		run(b, NewRSAAuth(keys[0], dir, memo), NewRSAAuth(keys[1], dir, memo))
	})
	b.Run("sim", func(b *testing.B) {
		keys := NewSimKeys([]byte("sts-1"), 2)
		run(b, NewSimAuth(keys, 0, 64, nil), NewSimAuth(keys, 1, 64, NewSimMemo(keys)))
	})
	b.Run("sim-fresh", func(b *testing.B) {
		keys := NewSimKeys([]byte("sts-1"), 2)
		run(b, NewSimAuth(keys, 0, 64, nil), NewSimAuth(keys, 1, 64, nil))
	})
}

// BenchmarkOnBeacon times the whole receive path — digest, SimAuth check,
// sequence check, neighbour-list copy — at one node hearing benchFanout
// senders in turn. The node verifies through a memo, but hears each beacon
// once, so every check misses: this is the miss path, MAC plus the memo's
// compare and copy.
func BenchmarkOnBeacon(b *testing.B) {
	const perSender = 512
	keys := NewSimKeys([]byte("sts-1"), benchFanout+1)
	cfg := Config{Period: 0.9, Delta: 2, Authenticate: true, BeaconBaseBytes: 28}
	k := sim.NewKernel()
	if err := k.Run(1); err != nil {
		b.Fatal(err)
	}
	svc, err := New(cfg, Deps{ID: 0, K: k, Auth: NewSimAuth(keys, 0, 64, NewSimMemo(keys))})
	if err != nil {
		b.Fatal(err)
	}
	beacons := make([]BeaconMsg, 0, benchFanout*perSender)
	for seq := uint64(1); seq <= perSender; seq++ {
		for from := link.NodeID(1); from <= benchFanout; from++ {
			m := BeaconMsg{From: from, Seq: seq, Neighbors: benchNeighbors(), Base: cfg.BeaconBaseBytes}
			m.Sig = NewSimAuth(keys, from, 64, nil).Sign(beaconDigest(nil, m))
			beacons = append(beacons, m)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(beacons)
		if j == 0 && i > 0 {
			// The pool starts over at sequence number 1: forget the old
			// numbers so the beacons are not rejected as replays.
			b.StopTimer()
			for _, ent := range svc.neigh {
				ent.lastSeq = 0
			}
			b.StartTimer()
		}
		svc.onBeacon(beacons[j].From, beacons[j])
	}
	if st := svc.Stats; st.BeaconsRejected != 0 || st.VerifyMemoHits != 0 {
		b.Fatalf("%d beacons rejected, %d checks answered from the memo", st.BeaconsRejected, st.VerifyMemoHits)
	}
}
