package thresh

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"
)

// referenceCombine is a straight big.Int transcription of Shoup's
// combination step — w = Π x_i^(2λ_{0,i}), sig = w^a · H(m)^b — that picks
// its own co-signer set and derives its own extended-Euclid pair, sharing
// only lagrangeNumerator and powSigned with Combine. Combine must produce
// byte-identical signatures (RSA signatures are unique: x ↦ x^e is a
// bijection mod N when gcd(e, λ(N)) = 1), so this is the oracle it is
// checked against.
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

// combinePinned is the SHA-256 over every signature
// TestCombineMatchesReference combines, each at the key's signature width
// (see there). RSA signatures are unique, so any Combine that is right
// gives these bytes; the digest was recorded on an earlier Combine that
// evaluated the product on Montgomery chains.
const combinePinned = "1c60f4c3f32f495e7c1bc4aa3dc00f3288db06f453d1492876205edbb58813c0"

// TestCombineMatchesReference checks Combine against the reference
// transcription for 512- and 1024-bit keys of several shapes, messages and
// rotated co-signer sets, and after a Refresh and a Reshare (2-of-5 to
// 1-of-3): every partial must be H(m)^(2Δ·s_i) mod N, every signature
// byte-identical to the reference and verify, and the SHA-256 over all
// signatures must equal combinePinned.
func TestCombineMatchesReference(t *testing.T) {
	h := sha256.New()
	check := func(gk GroupKey, signers []Signer, label string, m int) {
		t.Helper()
		g := gk.(*rsaGroupKey)
		msg := []byte(fmt.Sprintf("ref-msg-%s-%d", label, m))
		var parts []Partial
		for i := 0; i <= g.k; i++ {
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
				t.Fatalf("%s m=%d signer %d: partial bytes differ from reference", label, m, s.Index())
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
			t.Fatalf("%s m=%d: combined signature differs from reference", label, m)
		}
		if err := gk.Verify(msg, got); err != nil {
			t.Fatal(err)
		}
		h.Write(new(big.Int).SetBytes(got.Data).FillBytes(make([]byte, gk.SigBytes())))
	}
	for _, bits := range []int{512, 1024} {
		d := seededRSA(bits, 10)
		var gk25 GroupKey
		var signers25 []Signer
		for _, kn := range [][2]int{{0, 1}, {1, 3}, {2, 5}, {3, 7}} {
			gk, signers, err := d.Deal(kn[0], kn[1])
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < 4; m++ {
				check(gk, signers, fmt.Sprintf("%d-%d-%d", bits, kn[0], kn[1]), m)
			}
			if kn == [2]int{2, 5} {
				gk25, signers25 = gk, signers
			}
		}
		fresh, err := d.Refresh(gk25, signers25)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 2; m++ {
			check(gk25, fresh, fmt.Sprintf("%d-refresh", bits), m)
		}
		reshared, err := d.Reshare(gk25, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 2; m++ {
			check(gk25, reshared, fmt.Sprintf("%d-reshare", bits), m)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != combinePinned {
		t.Fatalf("combined signatures hash to %s, want %s", got, combinePinned)
	}
}
