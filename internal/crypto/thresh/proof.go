package thresh

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"math/big"
)

// Shoup's proof that a partial signature x_i was made with share i: with
// x = H(m), x̃ = x^(4Δ) and the key's verification keys v, v_i = v^(s_i),
// it shows log_x̃(x_i²) = log_v(v_i) without revealing s_i. The prover
// picks a nonce r and sends (c, z) with
//
//	c = H(v, x̃, v_i, x_i², v^r, x̃^r) cut to 128 bits,  z = s_i·c + r,
//
// and the verifier accepts when c = H(v, x̃, v_i, x_i², v^z·v_i^(−c),
// x̃^z·x_i^(−2c)).
const (
	// proofChallengeBytes is the size of c.
	proofChallengeBytes = 16
	// proofNonceSlack is how many bits r is longer than N: z = s_i·c + r
	// then hides s_i·c < N·2^128 statistically.
	proofNonceSlack = 256
)

// proofBytes is the proof's wire size under g: c, then z at the fixed
// width that holds s_i·c + r < 2^(|N|+proofNonceSlack+1).
func (g *rsaGroupKey) proofBytes() int {
	return proofChallengeBytes + (g.modulus.BitLen()+proofNonceSlack+1+7)/8
}

// proofBase is the verification base v = H(N)² mod N, a square hashed
// from the modulus, so dealing one draws nothing more from the dealer's
// stream.
func proofBase(modulus *big.Int) *big.Int {
	h := hashToModulus(append([]byte("ic-thresh-proof-base"), modulus.Bytes()...), modulus)
	h.Mul(h, h)
	return h.Mod(h, modulus)
}

// nonce derives the prover's r, |N|+proofNonceSlack bits, from the share
// and the message, as RFC 6979 derives a DSA nonce: an HMAC-SHA256 stream
// keyed by the share over a counter and the message. PartialSign draws
// nothing, so it stays a function of its inputs and a replayed partial
// keeps its bytes.
func (s *rsaSigner) nonce(msg []byte) *big.Int {
	bits := s.gk.modulus.BitLen() + proofNonceSlack
	size := (bits + 7) / 8
	mac := hmac.New(sha256.New, s.share.Bytes())
	var out []byte
	for ctr := uint32(0); len(out) < size; ctr++ {
		mac.Reset()
		_, _ = mac.Write(binary.BigEndian.AppendUint32(nil, ctr))
		_, _ = mac.Write(msg)
		out = mac.Sum(out)
	}
	out = out[:size]
	out[0] &= 0xff >> (8*size - bits)
	return new(big.Int).SetBytes(out)
}

// prove returns the proof for xi = x^(2Δ·s_i), x = H(msg): c followed by
// z at its fixed width.
func (s *rsaSigner) prove(msg []byte, x, xi *big.Int) []byte {
	g := s.gk
	N := g.modulus
	r := s.nonce(msg)
	xt := new(big.Int).Exp(x, g.fourDelta, N)
	xi2 := new(big.Int).Mul(xi, xi)
	xi2.Mod(xi2, N)
	vr := new(big.Int).Exp(g.v, r, N)
	xtr := new(big.Int).Exp(xt, r, N)
	proof := make([]byte, g.proofBytes())
	g.challenge(proof[:proofChallengeBytes], xt, s.vk, xi2, vr, xtr)
	z := new(big.Int).SetBytes(proof[:proofChallengeBytes])
	z.Mul(z, s.share)
	z.Add(z, r)
	z.FillBytes(proof[proofChallengeBytes:])
	return proof
}

// challenge writes c = H(v, x̃, v_i, x_i², a, b), cut to
// proofChallengeBytes, into dst. Every value is hashed at the modulus's
// width.
func (g *rsaGroupKey) challenge(dst []byte, xt, vi, xi2, a, b *big.Int) {
	buf := make([]byte, g.SigBytes())
	h := sha256.New()
	_, _ = h.Write([]byte("ic-thresh-proof"))
	for _, v := range [...]*big.Int{g.v, xt, vi, xi2, a, b} {
		_, _ = h.Write(v.FillBytes(buf))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	copy(dst, sum[:proofChallengeBytes])
}

// VerifyPartial implements GroupKey: it checks p's proof against the
// verification key of share p.Index. Data must be the canonical encoding
// of an x_i in 1..N−1 and Proof exactly proofBytes long, so no two byte
// strings pass for one partial. One ModInverse, of v_i^c·x_i^(2c), yields
// both negative powers. Like Combine and Verify, the check runs on
// math/big's Exp, whose assembly inner loops suit the |N|+257-bit
// exponent z.
func (g *rsaGroupKey) VerifyPartial(msg []byte, p Partial) bool {
	if p.Index < 1 || p.Index >= len(g.vk) || g.vk[p.Index] == nil ||
		len(p.Proof) != g.proofBytes() || len(p.Data) == 0 || p.Data[0] == 0 {
		return false
	}
	N := g.modulus
	xi := new(big.Int).SetBytes(p.Data)
	if xi.Cmp(N) >= 0 {
		return false
	}
	vi := g.vk[p.Index]
	c := new(big.Int).SetBytes(p.Proof[:proofChallengeBytes])
	z := new(big.Int).SetBytes(p.Proof[proofChallengeBytes:])
	vic := new(big.Int).Exp(vi, c, N)
	xic := new(big.Int).Exp(xi, new(big.Int).Lsh(c, 1), N)
	inv := new(big.Int).Mul(vic, xic)
	if inv.ModInverse(inv.Mod(inv, N), N) == nil {
		return false // x_i shares a factor with N
	}
	xt := hashToModulus(msg, N)
	xt.Exp(xt, g.fourDelta, N)
	a := new(big.Int).Exp(g.v, z, N) // v^z·v_i^(−c)
	a.Mul(a, inv).Mul(a, xic).Mod(a, N)
	b := new(big.Int).Exp(xt, z, N) // x̃^z·x_i^(−2c)
	b.Mul(b, inv).Mul(b, vic).Mod(b, N)
	xi2 := xi.Mul(xi, xi)
	xi2.Mod(xi2, N)
	var want [proofChallengeBytes]byte
	g.challenge(want[:], xt, vi, xi2, a, b)
	return subtle.ConstantTimeCompare(want[:], p.Proof[:proofChallengeBytes]) == 1
}
