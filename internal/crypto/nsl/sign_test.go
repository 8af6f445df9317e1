package nsl

import (
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

func TestSignVerify(t *testing.T) {
	kp, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("beacon: neighbours of node 7")
	sig := kp.Sign(msg)
	if err := Verify(kp.Pub, msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	kp, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("original")
	sig := kp.Sign(msg)
	if err := Verify(kp.Pub, []byte("forged"), sig); !errors.Is(err, ErrBadSig) {
		t.Fatalf("modified message: err = %v, want ErrBadSig", err)
	}
	sig[0] ^= 1
	if err := Verify(kp.Pub, msg, sig); !errors.Is(err, ErrBadSig) {
		t.Fatalf("modified signature: err = %v, want ErrBadSig", err)
	}
	if err := Verify(kp.Pub, msg, nil); !errors.Is(err, ErrBadSig) {
		t.Fatalf("empty signature: err = %v, want ErrBadSig", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	kp1, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	kp2, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("msg")
	sig := kp1.Sign(msg)
	if err := Verify(kp2.Pub, msg, sig); !errors.Is(err, ErrBadSig) {
		t.Fatalf("wrong key: err = %v, want ErrBadSig", err)
	}
}

func TestSigBytes(t *testing.T) {
	kp, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if got := SigBytes(kp.Pub); got != 64 {
		t.Fatalf("SigBytes = %d, want 64 for 512-bit key", got)
	}
}

// TestVerifyRejectsOutOfRange covers the signatures the range checks exist
// for: zero (in any encoding), N itself, N + a valid signature (congruent
// to it, so only the range check tells them apart) and one too wide for
// N's limbs.
func TestVerifyRejectsOutOfRange(t *testing.T) {
	kp := pinnedKey(t, 512, 1)
	msg := []byte("range")
	sig := kp.Sign(msg)
	shifted := new(big.Int).SetBytes(sig)
	shifted.Add(shifted, kp.Pub.N)
	for name, bad := range map[string][]byte{
		"zero":          {0},
		"zero, padded":  make([]byte, 64),
		"N":             kp.Pub.N.Bytes(),
		"sig + N":       shifted.Bytes(),
		"wider than N":  append([]byte{1}, make([]byte, 64)...),
		"flipped bit":   append([]byte{sig[0] ^ 0x10}, sig[1:]...),
		"flipped, tail": append(append([]byte(nil), sig[:63]...), sig[63]^1),
	} {
		if err := Verify(kp.Pub, msg, bad); !errors.Is(err, ErrBadSig) {
			t.Errorf("%s: err = %v, want ErrBadSig", name, err)
		}
	}
	// Leading zero bytes do not change the integer; math/big's SetBytes
	// accepted them too.
	if err := Verify(kp.Pub, msg, append([]byte{0, 0}, sig...)); err != nil {
		t.Errorf("zero-padded signature: %v", err)
	}
}

// TestVerifyLiteralPublicKey checks that a key assembled by literal — no
// cached context — verifies exactly like the generated one, and that a
// modulus Montgomery arithmetic is undefined on is a bad signature, not a
// panic.
func TestVerifyLiteralPublicKey(t *testing.T) {
	kp := pinnedKey(t, 512, 2)
	lit := PublicKey{N: new(big.Int).Set(kp.Pub.N), E: big.NewInt(65537)}
	msg := []byte("literal")
	sig := kp.Sign(msg)
	if err := Verify(lit, msg, sig); err != nil {
		t.Fatalf("literal key rejects a good signature: %v", err)
	}
	if err := Verify(lit, []byte("other"), sig); !errors.Is(err, ErrBadSig) {
		t.Fatalf("literal key, wrong message: err = %v, want ErrBadSig", err)
	}
	if cp := kp.Pub; cp != kp.Pub || lit == kp.Pub {
		t.Fatal("PublicKey comparison: copies must be ==, a literal is a different scope")
	}
	even := PublicKey{N: new(big.Int).Lsh(kp.Pub.N, 1), E: lit.E}
	if err := Verify(even, msg, sig); !errors.Is(err, ErrBadSig) {
		t.Fatalf("even modulus: err = %v, want ErrBadSig", err)
	}
	c, err := encrypt(lit, []byte("nonce"), mrand.New(mrand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := kp.decrypt(c); err != nil || string(plain) != "nonce" {
		t.Fatalf("decrypt(encrypt under literal key) = %q, %v", plain, err)
	}
}

// TestSignVerifyAllocs holds the allocation ceilings the per-key contexts
// bought (math/big's Exp cost 55 and 12): Sign of a message the key has
// not signed allocates the two CRT residues, the Garner temporaries and
// the signature bytes; Sign of one it has, from the memo, the signature
// bytes alone; Verify nothing beyond what the runtime may round up.
func TestSignVerifyAllocs(t *testing.T) {
	kp := pinnedKey(t, 512, 1)
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("allocs-%d", i))
	}
	next := 0
	miss := testing.AllocsPerRun(50, func() {
		kp.Sign(msgs[next])
		next++
	})
	if miss > 20 {
		t.Errorf("Sign, not memoized: %.0f allocs, want ≤ 20", miss)
	}
	msg := msgs[0]
	sig := kp.Sign(msg)
	if hit := testing.AllocsPerRun(50, func() { kp.Sign(msg) }); hit > 1 || hit > miss {
		t.Errorf("Sign, memoized: %.0f allocs, want ≤ 1 and ≤ a miss's %.0f", hit, miss)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := Verify(kp.Pub, msg, sig); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("Verify: %.0f allocs, want ≤ 8", n)
	}
}

// TestKeyPairSharedAcrossGoroutines signs and verifies with one key pair
// from four goroutines; under -race it shows the key's contexts are
// read-only and its signature memo locked (the sharded simulator shares
// the keys across kernels).
func TestKeyPairSharedAcrossGoroutines(t *testing.T) {
	kp := pinnedKey(t, 512, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				msg := []byte(fmt.Sprintf("g%d-%d", g, i))
				if err := Verify(kp.Pub, msg, kp.Sign(msg)); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
