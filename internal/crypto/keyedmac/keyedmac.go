// Package keyedmac is the repository's one keyed MAC: HMAC-SHA256 under a
// 32-byte key, computed without touching the heap. crypto/hmac allocates
// its two hash states in New, which the per-message paths that use this
// package would pay on every call: sts.SimAuth signs and checks every
// beacon with it, and the threshold package's keyed-MAC scheme signs and
// checks every partial with it.
//
// Sum reads its key and keeps no state, so one key table may be read by
// nodes on several shard goroutines at once.
package keyedmac

import "crypto/sha256"

// Size is the key and tag length in bytes.
const Size = sha256.Size

// Sum returns HMAC-SHA256(key, msg). The hash state and both key blocks
// stay on the stack.
func Sum(key *[Size]byte, msg []byte) (sum [Size]byte) {
	var pad [sha256.BlockSize]byte
	h := sha256.New()
	keyPad(&pad, key, 0x36)
	_, _ = h.Write(pad[:])
	_, _ = h.Write(msg)
	h.Sum(sum[:0])
	h.Reset()
	keyPad(&pad, key, 0x5c)
	_, _ = h.Write(pad[:])
	_, _ = h.Write(sum[:])
	h.Sum(sum[:0])
	return sum
}

// keyPad fills pad with HMAC's key block: the zero-extended key XOR b.
func keyPad(pad *[sha256.BlockSize]byte, key *[Size]byte, b byte) {
	for i := range pad {
		pad[i] = b
	}
	for i, k := range key {
		pad[i] ^= k
	}
}
