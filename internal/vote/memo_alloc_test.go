package vote

import (
	"testing"

	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/crypto/thresh"
	"innercircle/internal/sts"
)

// TestMemoAllocs pins the heap allocations of one memoized verification of
// each kind, answered from the memo (hit) and performed afresh (miss). A
// miss is measured on a one-entry memo fed two alternating inputs, so
// every lookup misses and every Put evicts; its count includes the
// verification itself. The figures are the memo path's whole cost: a
// memo helper that added a heap-escaping closure or a variadic slice
// would raise them.
func TestMemoAllocs(t *testing.T) {
	const level = 1
	gk, signers, err := thresh.NewSimDealer([]byte("memo-allocs"), 128).Deal(level, 3)
	if err != nil {
		t.Fatal(err)
	}
	agreed := func(seq uint64) AgreedMsg {
		m := AgreedMsg{Center: 1, Seq: seq, L: level, Value: []byte("route-to-D")}
		dig := appendDigest(nil, m.Center, m.Seq, m.L, m.Value)
		var parts []thresh.Partial
		for _, sg := range signers[:level+1] {
			p, err := sg.PartialSign(dig)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		if m.Sig, err = gk.Combine(dig, parts); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a1, a2 := agreed(1), agreed(2)

	// Voter 1's value signatures under either authenticator. The memo
	// keys a value verdict by the voter's ID, boxed into the key's scope;
	// the runtime boxes an ID below 256 without allocating, and an ID at
	// or above it costs one 8-byte allocation per lookup.
	const voter = 1
	d1, d2 := []byte("value digest one"), []byte("value digest two")
	rsa, simAuth := rsaAuths(t, 2)[voter], simAuths(t, 2)[voter]
	value := func(auth sts.Auth) func(s *Service, i int) bool {
		sigs := [][]byte{auth.Sign(d1), auth.Sign(d2)}
		return func(s *Service, i int) bool {
			return s.verifyValue(voter, [][]byte{d1, d2}[i], sigs[i]) == nil
		}
	}

	p1, err := signers[0].PartialSign(d1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := signers[1].PartialSign(d1)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		auth sts.Auth // the service's authenticator (value signatures)
		hit  float64  // allocations per memo hit
		miss float64  // allocations per memo miss, verification included
		// verify runs the i-th of two distinct verifications of the kind.
		verify func(s *Service, i int) bool
	}{
		{"agreed", nil, 0, 2, func(s *Service, i int) bool {
			return s.VerifyAgreed([]AgreedMsg{a1, a2}[i]) == nil
		}},
		{"nsl", rsa, 0, 2, value(rsa)},
		{"nsl-simauth", simAuth, 0, 2, value(simAuth)},
		{"partial", nil, 0, 2, func(s *Service, i int) bool {
			if i == 0 {
				return s.verifyPartial(gk, d1, p1)
			}
			return s.verifyPartial(gk, d1, p2)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Service{deps: Deps{Ring: PublicRing{level: gk}, Auth: c.auth, Memo: sigcache.New(sigcache.DefaultCap)}}
			if !c.verify(s, 0) {
				t.Fatal("genuine signature rejected")
			}
			hit := testing.AllocsPerRun(100, func() { c.verify(s, 0) })
			if s.Stats.MemoMisses != 1 {
				t.Fatalf("hit loop missed the memo: %d misses", s.Stats.MemoMisses)
			}

			s = &Service{deps: Deps{Ring: PublicRing{level: gk}, Auth: c.auth, Memo: sigcache.New(1)}}
			c.verify(s, 0)
			c.verify(s, 1)
			pair := testing.AllocsPerRun(100, func() {
				c.verify(s, 0)
				c.verify(s, 1)
			})
			if s.Stats.MemoHits != 0 {
				t.Fatalf("miss loop hit the memo %d times", s.Stats.MemoHits)
			}
			if hit != c.hit || pair/2 != c.miss {
				t.Fatalf("allocs per hit %v, per miss %v; want %v and %v", hit, pair/2, c.hit, c.miss)
			}
		})
	}
}
