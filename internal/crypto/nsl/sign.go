package nsl

import (
	"crypto/sha256"
	"errors"
	"math/big"
	"math/bits"
	"sync"

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
	return kp.sign(h)
}

// sign returns h^d mod N as bytes, from the key's memo when it signed h
// before.
func (kp *KeyPair) sign(h []big.Word) []byte {
	if sig := kp.memo.lookup(h); sig != nil {
		return sig
	}
	sig := kp.privExp(h).Bytes()
	kp.memo.store(h, sig)
	return sig
}

// signMemoSlots is how many signatures a key remembers; a power of two.
// At 64, the 100 keys of a Fig. 8 network hold under 1 MB.
const signMemoSlots = 64

// signMemo maps a hash-to-modulus value to its signature, for Sign: §4.1
// has a node sign the same beacon and value bytes again across the runs
// and rows of a sweep that share a seed. It is direct-mapped on h's low
// word and compares the whole of h, so it is exact: a signature is a pure
// function of the key and h. The mutex makes a key shareable across
// shards and workers.
type signMemo struct {
	mu     sync.Mutex
	k      int        // words per h
	h      []big.Word // slot i: h[i*k : (i+1)*k]
	sig    []byte     // slot i: sig[i*width : i*width+sigLen[i]]
	sigLen []int      // 0 marks an empty slot; no signature is empty
	width  int        // bytes a slot holds: k words, room for any value below N
}

// slot returns h's slot index.
func slot(h []big.Word) int { return int(h[0] & (signMemoSlots - 1)) }

// lookup returns a fresh copy of h's signature, or nil when h is not held.
func (m *signMemo) lookup(h []big.Word) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.h == nil {
		return nil
	}
	i := slot(h)
	n := m.sigLen[i]
	if n == 0 || !mont.Equal(m.h[i*m.k:(i+1)*m.k], h) {
		return nil
	}
	return append([]byte(nil), m.sig[i*m.width:i*m.width+n]...)
}

// store puts sig in h's slot, evicting what was there. The backing arrays
// are allocated on the first store, sized by h's k words.
func (m *signMemo) store(h []big.Word, sig []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.h == nil {
		m.k = len(h)
		m.width = len(h) * bits.UintSize / 8
		m.h = make([]big.Word, signMemoSlots*m.k)
		m.sig = make([]byte, signMemoSlots*m.width)
		m.sigLen = make([]int, signMemoSlots)
	}
	i := slot(h)
	copy(m.h[i*m.k:(i+1)*m.k], h)
	m.sigLen[i] = copy(m.sig[i*m.width:(i+1)*m.width], sig)
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
