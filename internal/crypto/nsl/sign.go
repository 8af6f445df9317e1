package nsl

import (
	"crypto/sha256"
	"errors"
	"math/big"

	"innercircle/internal/crypto/mont"
)

// Sign produces an RSA signature over SHA-256(msg) with the party's private
// key (hash-then-exponentiate; the same simulation-grade caveat as the
// package's encryption applies). STS beacons are signed this way so any
// receiver holding the directory can authenticate them.
func (kp *KeyPair) Sign(msg []byte) []byte {
	mc := kp.Pub.mc
	k := mc.K()
	var stack [4*stackWordsN + 1]big.Word
	arena := stack[:]
	if need := k + mc.ShortScratch(); need > len(arena) {
		arena = make([]big.Word, need)
	}
	h, scratch := arena[:k], arena[k:]
	hashToModulusN(h, msg, mc, scratch)
	return kp.privExp(h).Bytes()
}

// ErrBadSig is returned by Verify for invalid signatures.
var ErrBadSig = errors.New("nsl: bad signature")

// Verify checks an RSA signature produced by Sign: sig^E against the
// message's hash, compared in the Montgomery domain of pub's context.
func Verify(pub PublicKey, msg, sig []byte) error {
	mc := pub.context()
	if mc == nil || len(sig) == 0 {
		return ErrBadSig
	}
	k := mc.K()
	var stack [6*stackWordsN + 1]big.Word
	arena := stack[:]
	if need := 3*k + mc.ShortScratch(); need > len(arena) {
		arena = make([]big.Word, need)
	}
	s, h, w, scratch := arena[:k], arena[k:2*k], arena[2*k:3*k], arena[3*k:]
	if !mont.SetBytes(s, sig) || !mont.Less(s, mc.Modulus()) {
		return ErrBadSig
	}
	hashToModulusN(h, msg, mc, scratch)
	pub.exp(mc, w, s, scratch)
	mc.ToMont(s, h, scratch)
	if !mont.Equal(w, s) {
		return ErrBadSig
	}
	return nil
}

// SigBytes returns the signature size under pub, for wire accounting.
func SigBytes(pub PublicKey) int { return (pub.N.BitLen() + 7) / 8 }

// hashBufBytes is the modulus size, in bytes, up to which hashToModulusN
// expands on the stack (2048 bits).
const hashBufBytes = 256

// hashToModulusN maps msg into Z_N via counter-mode SHA-256 expansion:
// the first ⌈bits(N)/8⌉ bytes of H(0x51 ‖ 0 ‖ msg) ‖ H(0x51 ‖ 1 ‖ msg) ‖ …
// reduced mod N, with 0 mapped to 1. It runs once per signature and per
// verification, so it does not allocate for moduli up to hashBufBytes: one
// hash state is reset per block and the expansion lands in a fixed buffer.
// dst takes the k result limbs; scratch must hold mc.ShortScratch() words.
func hashToModulusN(dst []big.Word, msg []byte, mc *mont.Ctx, scratch []big.Word) {
	need := (mc.BitLen() + 7) / 8
	var buf [hashBufBytes + sha256.Size]byte
	out := buf[:0]
	if need > hashBufBytes {
		out = make([]byte, 0, need+sha256.Size)
	}
	h := sha256.New()
	prefix := [2]byte{0x51, 0}
	for len(out) < need {
		h.Reset()
		_, _ = h.Write(prefix[:])
		_, _ = h.Write(msg)
		out = h.Sum(out)
		prefix[1]++
	}
	mont.SetBytes(dst, out[:need]) // need bytes always fit N's width
	if !mont.Less(dst, mc.Modulus()) {
		// The expansion is below 2^(8·need) ≤ R, which is all ToMont asks
		// of its operand: into the Montgomery domain and back reduces it.
		k := mc.K()
		mc.ToMont(scratch[:k], dst, scratch[k:])
		mc.FromMont(dst, scratch[:k], scratch[k:])
	}
	for _, w := range dst {
		if w != 0 {
			return
		}
	}
	dst[0] = 1
}
