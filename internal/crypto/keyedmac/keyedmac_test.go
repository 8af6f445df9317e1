package keyedmac

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	mrand "math/rand"
	"testing"
)

// maxFuzzMsg bounds the fuzzed message length: 300 bytes spans four
// SHA-256 blocks and every padding boundary between them.
const maxFuzzMsg = 300

func checkAgainstHMAC(t *testing.T, key *[Size]byte, msg []byte) {
	t.Helper()
	ref := hmac.New(sha256.New, key[:])
	ref.Write(msg)
	if got, want := Sum(key, msg), ref.Sum(nil); !bytes.Equal(got[:], want) {
		t.Fatalf("key %x, %d-byte message: Sum %x, crypto/hmac %x", key, len(msg), got, want)
	}
}

// TestSumIsHMAC checks the stack-resident MAC against crypto/hmac at
// message lengths either side of the SHA-256 block boundaries.
func TestSumIsHMAC(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	for _, n := range []int{0, 1, 31, 32, 55, 56, 63, 64, 65, 96, 119, 120, 1000} {
		var key [Size]byte
		msg := make([]byte, n)
		rng.Read(key[:])
		rng.Read(msg)
		checkAgainstHMAC(t, &key, msg)
	}
}

func TestSumDoesNotAllocate(t *testing.T) {
	var key [Size]byte
	key[0] = 1
	msg := make([]byte, 100)
	var sum [Size]byte
	if n := testing.AllocsPerRun(100, func() { sum = Sum(&key, msg) }); n != 0 {
		t.Fatalf("Sum: %.0f allocations per call, want 0", n)
	}
	_ = sum
}

// FuzzKeyedMACMatchesHMAC compares Sum with crypto/hmac on arbitrary 32-byte
// keys and messages of 0–300 bytes. The fuzzed key bytes are zero-extended
// or cut to 32, the message cut to 300.
func FuzzKeyedMACMatchesHMAC(f *testing.F) {
	rng := mrand.New(mrand.NewSource(11))
	for _, n := range []int{0, 1, 55, 56, 64, 119, 120, 300} {
		key := make([]byte, Size)
		msg := make([]byte, n)
		rng.Read(key)
		rng.Read(msg)
		f.Add(key, msg)
	}
	f.Fuzz(func(t *testing.T, keyBytes, msg []byte) {
		var key [Size]byte
		copy(key[:], keyBytes)
		if len(msg) > maxFuzzMsg {
			msg = msg[:maxFuzzMsg]
		}
		checkAgainstHMAC(t, &key, msg)
	})
}
