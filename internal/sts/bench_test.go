package sts

import (
	"testing"

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

// BenchmarkBeaconAuth times one authenticator's check of one beacon
// signature, without a memo: the cost a memo miss passes on.
func BenchmarkBeaconAuth(b *testing.B) {
	const pool = 64
	digests := make([][]byte, pool)
	for i := range digests {
		digests[i] = beaconDigest(nil, BeaconMsg{From: 0, Seq: uint64(i + 1), Neighbors: benchNeighbors()})
	}
	for _, sc := range memoSchemes {
		b.Run(sc.name, func(b *testing.B) {
			auths := sc.auths(b, 2)
			sigs := make([][]byte, pool)
			for i := range sigs {
				sigs[i] = auths[0].Sign(digests[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % pool
				if err := auths[1].Verify(0, digests[j], sigs[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnBeacon times the whole receive path — digest, memo, signature
// check, sequence check, neighbour-list copy — at one node hearing
// benchFanout senders in turn, for each authenticator with a memo and
// without one (fresh). The node hears each beacon once, so with a memo
// every check misses: memo is the miss path, the authenticator plus the
// memo's compare and copy.
func BenchmarkOnBeacon(b *testing.B) {
	const perSender = 512
	cfg := Config{Period: 0.9, Delta: 2, Authenticate: true, BeaconBaseBytes: 28}
	for _, sc := range memoSchemes {
		auths := sc.auths(b, benchFanout+1)
		beacons := make([]BeaconMsg, 0, benchFanout*perSender)
		for seq := uint64(1); seq <= perSender; seq++ {
			for from := link.NodeID(1); from <= benchFanout; from++ {
				m := BeaconMsg{From: from, Seq: seq, Neighbors: benchNeighbors(), Base: cfg.BeaconBaseBytes}
				m.Sig = auths[from].Sign(beaconDigest(nil, m))
				beacons = append(beacons, m)
			}
		}
		for _, memoized := range []bool{true, false} {
			name := sc.name + "/fresh"
			if memoized {
				name = sc.name + "/memo"
			}
			b.Run(name, func(b *testing.B) {
				var memo *Memo
				if memoized {
					memo = NewMemo(benchFanout + 1)
				}
				k := sim.NewKernel()
				if err := k.Run(1); err != nil {
					b.Fatal(err)
				}
				svc, err := New(cfg, Deps{ID: 0, K: k, Auth: auths[0], Memo: memo})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % len(beacons)
					if j == 0 && i > 0 {
						// The pool starts over at sequence number 1: forget
						// the old numbers so the beacons are not rejected as
						// replays.
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
			})
		}
	}
}
