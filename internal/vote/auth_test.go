package vote

import (
	"bytes"
	"testing"

	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/link"
	"innercircle/internal/sts"
)

// TestStatisticalVotingSameUnderBothAuths runs one statistical round with
// every node signing its value through SimAuth, then through RSAAuth, and
// requires the same agreed value at every node. The level is the whole
// circle, so the fused value does not depend on which voters answer first.
func TestStatisticalVotingSameUnderBothAuths(t *testing.T) {
	const n = 5
	var want []byte
	for _, sc := range authSchemes {
		t.Run(sc.name, func(t *testing.T) {
			agreed := make([][]AgreedMsg, n)
			net := buildVoteAuth(t, statConfig(n-1), simDealer(), sc.auths(t, n), func(i int) Callbacks {
				return Callbacks{
					LocalValue: func(link.NodeID, []byte) ([]byte, bool) { return []byte{byte(10 * (i + 1))}, true },
					Fuse:       fuseMax,
					OnAgreed:   func(a AgreedMsg) { agreed[i] = append(agreed[i], a) },
				}
			})
			if err := net.svcs[0].Propose([]byte{5}); err != nil {
				t.Fatal(err)
			}
			if err := net.k.Run(3); err != nil {
				t.Fatal(err)
			}
			for i := range agreed {
				if len(agreed[i]) != 1 {
					t.Fatalf("node %d saw %d agreed messages, want 1", i, len(agreed[i]))
				}
				if got := agreed[i][0].Value; !bytes.Equal(got, []byte{10 * n}) {
					t.Fatalf("node %d agreed on %v, want [%d]", i, got, 10*n)
				}
				if st := net.svcs[i].Stats; st.ChecksRejected != 0 {
					t.Fatalf("node %d rejected %d checks", i, st.ChecksRejected)
				}
			}
			if want == nil {
				want = agreed[0][0].Value
			} else if !bytes.Equal(agreed[0][0].Value, want) {
				t.Fatalf("agreed on %v, the other authenticator on %v", agreed[0][0].Value, want)
			}
		})
	}
}

// TestValueClaimedByOtherVoterRejected signs a value message with voter
// A's key but names voter B as its signer. The center rejects it, and so
// does a voter checking the statistical proposal that carries it, even
// after A's valid verdict on exactly those digest and signature bytes is
// memoized: a value verdict is keyed by the claimed signer's ID.
func TestValueClaimedByOtherVoterRejected(t *testing.T) {
	const a, b link.NodeID = 1, 2
	for _, sc := range authSchemes {
		t.Run(sc.name, func(t *testing.T) {
			net := buildVoteAuth(t, statConfig(2), simDealer(), sc.auths(t, 4), func(int) Callbacks {
				return Callbacks{
					LocalValue: func(link.NodeID, []byte) ([]byte, bool) { return []byte{1}, true },
					Fuse:       func(_ link.NodeID, vals [][]byte) []byte { return bytes.Join(vals, nil) },
				}
			})
			for _, s := range net.svcs {
				s.deps.Memo = sigcache.New(sigcache.DefaultCap)
			}
			signed := func(voter, signer link.NodeID, v []byte) SignedValue {
				return SignedValue{Voter: voter, Value: v, Sig: net.auths[signer].Sign(appendValueDigest(nil, 0, 1, voter, v))}
			}
			forged := signed(b, a, []byte{7})
			digB := appendValueDigest(nil, 0, 1, b, forged.Value)
			// memoizeA has A's verdict on the forged bytes found valid and
			// memoized at s, then requires B's claim to miss the memo.
			memoizeA := func(s *Service) (misses uint64) {
				t.Helper()
				if err := s.verifyValue(a, digB, forged.Sig); err != nil {
					t.Fatalf("A's own signature rejected: %v", err)
				}
				return s.Stats.MemoMisses
			}

			center := net.svcs[0]
			if err := center.Propose([]byte("meta")); err != nil {
				t.Fatal(err)
			}
			misses := memoizeA(center)
			center.HandleEnv(env(b, ValueMsg{Center: 0, Seq: 1, Voter: b, Value: forged.Value, Sig: forged.Sig}))
			if r := center.rounds[1]; r == nil || r.hasValue(b) || len(r.values) != 0 {
				t.Fatalf("center accepted B's name on A's signature: round %+v", r)
			}
			if center.Stats.MemoMisses != misses+1 {
				t.Fatalf("B's claim: %d memo misses, want %d", center.Stats.MemoMisses, misses+1)
			}

			voter := net.svcs[3]
			propose := func(sv SignedValue) ProposeMsg {
				values := []SignedValue{{Voter: 0, Value: []byte{5}}, signed(a, a, []byte{6}), sv}
				vals := make([][]byte, len(values))
				for i, v := range values {
					vals[i] = v.Value
				}
				return ProposeMsg{Center: 0, Seq: 1, L: 2, Mode: Statistical, Value: bytes.Join(vals, nil), Values: values}
			}
			if !voter.verifyStatPropose(propose(signed(b, b, forged.Value))) {
				t.Fatal("honest proposal rejected")
			}
			misses = memoizeA(voter)
			if voter.verifyStatPropose(propose(forged)) {
				t.Fatal("proposal carrying B's name on A's signature accepted")
			}
			if voter.Stats.MemoMisses != misses+1 {
				t.Fatalf("B's claim: %d memo misses, want %d", voter.Stats.MemoMisses, misses+1)
			}
		})
	}
}

// FuzzValueMemoDifferential checks one fuzzed stream of value signatures
// twice, through a service with a small verification memo and through one
// without, under each authenticator (RSAAuth over seeded keys, SimAuth).
// Each four-byte step is one check: its signature mode, the voter ID it is
// claimed for (some outside the key set), the value and digest fields, and
// a parameter. The signature is the claimed voter's genuine one, a
// bit-flipped, padding-flipped, truncated or empty copy, another node's
// signature over the same digest, or the previous step's; or the step
// repeats the previous check. A set mode bit 3 swaps the claimed ID after
// signing, keeping the digest and signature bytes. Every verdict must
// equal the fresh one (error text included), every memoized check must be
// a hit or a miss, and a hit is only allowed for a (voter, digest,
// signature) triple checked before.
func FuzzValueMemoDifferential(f *testing.F) {
	const nodes = 4
	auths := make([][]sts.Auth, len(authSchemes))
	for i, sc := range authSchemes {
		auths[i] = sc.auths(f, nodes)
	}
	f.Add([]byte{0, 1, 7, 0, 0, 1, 7, 0, 9, 1, 7, 0, 0, 2, 7, 0})
	f.Add([]byte{1, 2, 3, 40, 2, 2, 3, 0, 3, 2, 3, 17, 4, 2, 3, 0, 6, 0, 0, 0})
	f.Add([]byte{5, 0, 9, 1, 13, 0, 9, 2, 0, 250, 9, 0, 0, 5, 9, 0, 7, 3, 1, 0})
	f.Add([]byte{8, 1, 200, 0, 0, 1, 200, 0, 8, 1, 200, 0, 14, 1, 1, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 4*64 {
			stream = stream[:4*64]
		}
		for i, sc := range authSchemes {
			t.Run(sc.name, func(t *testing.T) { fuzzValueMemo(t, auths[i], stream) })
		}
	})
}

func fuzzValueMemo(t *testing.T, auths []sts.Auth, stream []byte) {
	nodes := len(auths)
	plain := &Service{deps: Deps{Auth: auths[0]}}
	memoized := &Service{deps: Deps{Auth: auths[0], Memo: sigcache.New(8)}}
	type triple struct {
		voter    link.NodeID
		dig, sig string
	}
	checked := map[triple]bool{}
	var checks uint64
	var prev triple
	for ; len(stream) >= 4; stream = stream[4:] {
		op := stream[:4]
		voter := link.NodeID(int(int8(op[1])) % (nodes + 2))
		value := op[2:3]
		dig := appendValueDigest(nil, link.NodeID(op[2]>>6), uint64(op[2]>>4&3), voter, value)
		signer := (int(voter)%nodes + nodes) % nodes
		sig := auths[signer].Sign(dig)
		param := int(op[3])
		switch op[0] % 8 {
		case 1:
			sig = flipBit(sig, param%(8*len(sig)))
		case 2:
			sig = flipBit(sig, 8*len(sig)-1)
		case 3:
			sig = sig[:param%len(sig)]
		case 4:
			sig = nil
		case 5:
			sig = auths[param%nodes].Sign(dig)
		case 6:
			if prev.dig != "" {
				voter, dig, sig = prev.voter, []byte(prev.dig), []byte(prev.sig)
			}
		case 7:
			sig = []byte(prev.sig)
		}
		if op[0]&8 != 0 {
			voter = link.NodeID((int(voter) + 1 + param%nodes) % (nodes + 2))
		}
		cur := triple{voter, string(dig), string(sig)}

		hits := memoized.Stats.MemoHits
		got, want := memoized.verifyValue(voter, dig, sig), plain.verifyValue(voter, dig, sig)
		checks++
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("voter %d: memoized verdict %v, fresh %v", voter, got, want)
		}
		if memoized.Stats.MemoHits > hits && !checked[cur] {
			t.Fatalf("voter %d: answered from the memo, but its bytes were never checked", voter)
		}
		if st := memoized.Stats; st.MemoHits+st.MemoMisses != checks {
			t.Fatalf("%d memo hits + %d misses for %d checks", st.MemoHits, st.MemoMisses, checks)
		}
		if plain.Stats != (Stats{}) {
			t.Fatalf("the service without a memo counted %+v", plain.Stats)
		}
		checked[cur] = true
		prev = cur
	}
}

// flipBit returns a copy of b with one bit inverted.
func flipBit(b []byte, bit int) []byte {
	out := bytes.Clone(b)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}
