package thresh

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
)

// referenceCombine is a straight big.Int transcription of Shoup's
// combination step — w = Π x_i^(2λ_{0,i}), sig = w^a · H(m)^b — with no
// Montgomery context, no scratch reuse, and no memoization. The fast path
// in Combine must produce byte-identical signatures (RSA signatures are
// unique: x ↦ x^e is a bijection mod N when gcd(e, λ(N)) = 1), so this is
// the oracle the optimized code is checked against.
func referenceCombine(g *rsaGroupKey, msg []byte, partials []Partial) (Signature, error) {
	seen := make(map[int]bool)
	var use []Partial
	for _, p := range partials {
		if p.Index < 1 || p.Index > g.n || seen[p.Index] || len(p.Data) == 0 {
			continue
		}
		seen[p.Index] = true
		use = append(use, p)
		if len(use) == g.k+1 {
			break
		}
	}
	if len(use) < g.k+1 {
		return Signature{}, fmt.Errorf("%w: have %d, need %d", ErrTooFewPartials, len(use), g.k+1)
	}
	set := make([]int, len(use))
	for i, p := range use {
		set[i] = p.Index
	}
	x := hashToModulus(msg, g.modulus)
	w := big.NewInt(1)
	for _, p := range use {
		lam := g.lagrangeNumerator(set, p.Index)
		lam.Lsh(lam, 1) // 2λ
		xi := new(big.Int).SetBytes(p.Data)
		term, err := powSigned(xi, lam, g.modulus)
		if err != nil {
			return Signature{}, err
		}
		w.Mul(w, term)
		w.Mod(w, g.modulus)
	}
	fourDeltaSq := new(big.Int).Mul(g.delta, g.delta)
	fourDeltaSq.Lsh(fourDeltaSq, 2)
	a := new(big.Int)
	b := new(big.Int)
	new(big.Int).GCD(a, b, fourDeltaSq, g.e)
	wa, err := powSigned(w, a, g.modulus)
	if err != nil {
		return Signature{}, err
	}
	xb, err := powSigned(x, b, g.modulus)
	if err != nil {
		return Signature{}, err
	}
	sig := wa.Mul(wa, xb)
	sig.Mod(sig, g.modulus)
	if new(big.Int).Exp(sig, g.e, g.modulus).Cmp(x) != 0 {
		return Signature{}, fmt.Errorf("%w: combined signature invalid", ErrBadPartial)
	}
	return Signature{Data: sig.Bytes()}, nil
}

// TestCombineMatchesReference checks the optimized Combine against the
// reference transcription for several key shapes, messages, and rotated
// co-signer sets: signatures must be byte-identical and verify.
func TestCombineMatchesReference(t *testing.T) {
	d := seededRSA(512, 10)
	for _, kn := range [][2]int{{0, 1}, {1, 3}, {2, 5}, {3, 7}} {
		gk, signers, err := d.Deal(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		g := gk.(*rsaGroupKey)
		for m := 0; m < 4; m++ {
			msg := []byte(fmt.Sprintf("ref-msg-%d-%d", kn[0], m))
			var parts []Partial
			for i := 0; i <= kn[0]; i++ {
				s := signers[(i+m)%len(signers)]
				p, err := s.PartialSign(msg)
				if err != nil {
					t.Fatal(err)
				}
				// PartialSign must be H(m)^(2Δ·s_i) mod N exactly.
				rs := s.(*rsaSigner)
				exp := new(big.Int).Lsh(g.delta, 1)
				exp.Mul(exp, rs.share)
				x := hashToModulus(msg, g.modulus)
				want := x.Exp(x, exp, g.modulus).Bytes()
				if !bytes.Equal(p.Data, want) {
					t.Fatalf("k=%d m=%d signer %d: partial bytes differ from reference", kn[0], m, s.Index())
				}
				parts = append(parts, p)
			}
			got, err := gk.Combine(msg, parts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceCombine(g, msg, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("k=%d n=%d m=%d: combined signature differs from reference", kn[0], kn[1], m)
			}
			if err := gk.Verify(msg, got); err != nil {
				t.Fatal(err)
			}
		}
	}
}
