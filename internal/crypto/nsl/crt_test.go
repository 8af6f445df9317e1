package nsl

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// hashWords is hashToModulusN's k limbs for msg under pub.
func hashWords(msg []byte, pub PublicKey) []big.Word {
	mc := pub.context()
	h := make([]big.Word, mc.K())
	hashToModulusN(h, msg, mc, make([]big.Word, mc.ShortScratch()))
	return h
}

// hashInt is hashToModulusN as a big.Int, for the direct-form references.
func hashInt(msg []byte, pub PublicKey) *big.Int { return new(big.Int).SetBits(hashWords(msg, pub)) }

// TestCRTMatchesDirectExponentiation checks that the CRT/Montgomery
// private-key path produces bit-identical results to the direct c^d mod N
// form, for both signing and decryption, across modulus sizes (1030 bits:
// primes of 9 words under a 17-word modulus, past every stack arena).
func TestCRTMatchesDirectExponentiation(t *testing.T) {
	for _, bits := range []int{512, 1024, 1030} {
		kp, err := GenerateKeyPair(bits, mrand.New(mrand.NewSource(int64(bits))))
		if err != nil {
			t.Fatal(err)
		}
		rng := mrand.New(mrand.NewSource(9))
		for i := 0; i < 20; i++ {
			c := new(big.Int).Rand(rng, kp.Pub.N)
			got := kp.privExp(c.Bits())
			want := new(big.Int).Exp(c, kp.d, kp.Pub.N)
			if got.Cmp(want) != 0 {
				t.Fatalf("bits=%d trial=%d: CRT exponentiation differs from direct", bits, i)
			}
		}
		for i := 0; i < 4; i++ {
			msg := []byte(fmt.Sprintf("crt-msg-%d", i))
			sig := kp.Sign(msg)
			want := new(big.Int).Exp(hashInt(msg, kp.Pub), kp.d, kp.Pub.N).Bytes()
			if !bytes.Equal(sig, want) {
				t.Fatalf("bits=%d msg=%d: CRT signature differs from direct", bits, i)
			}
			if err := Verify(kp.Pub, msg, sig); err != nil {
				t.Fatal(err)
			}
		}
	}
}
