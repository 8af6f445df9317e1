package thresh

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// refDerive is simDerive's definition: HMAC-SHA256(master, keyID‖index)
// through crypto/hmac.
func refDerive(master []byte, keyID uint64, index int) []byte {
	mac := hmac.New(sha256.New, master)
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], keyID)
	binary.BigEndian.PutUint64(buf[8:], uint64(index))
	mac.Write(buf[:])
	return mac.Sum(nil)
}

// TestSimDeriveMatchesHMAC checks simDerive against crypto/hmac for every
// master length from empty to past one hash block: the zero-padded
// keyedmac path up to 32 bytes, crypto/hmac beyond it.
func TestSimDeriveMatchesHMAC(t *testing.T) {
	master := make([]byte, 80)
	for i := range master {
		master[i] = byte(0xa5 ^ i*29)
	}
	for n := 0; n <= len(master); n++ {
		for _, c := range []struct {
			keyID uint64
			index int
		}{{0, 0}, {1, 0}, {1, 7}, {1<<64 - 1, 1<<31 - 1}} {
			got := simDerive(master[:n], c.keyID, c.index)
			if want := refDerive(master[:n], c.keyID, c.index); !hmac.Equal(got[:], want) {
				t.Fatalf("master of %d bytes, key %d, index %d: got %x, want %x", n, c.keyID, c.index, got, want)
			}
		}
	}
}

func FuzzSimDeriveMatchesHMAC(f *testing.F) {
	f.Add([]byte(""), uint64(0), 0)
	f.Add([]byte("net-1"), uint64(3), 5)
	f.Add(make([]byte, 32), uint64(1), 1)
	f.Add(make([]byte, 33), uint64(1), 1)
	f.Add(make([]byte, 65), uint64(1<<63), -1)
	f.Fuzz(func(t *testing.T, master []byte, keyID uint64, index int) {
		got := simDerive(master, keyID, index)
		if want := refDerive(master, keyID, index); !hmac.Equal(got[:], want) {
			t.Fatalf("master %x, key %d, index %d: got %x, want %x", master, keyID, index, got, want)
		}
	})
}

// TestSimDeriveAllocs pins the derivation every dealt share key runs: a
// master of at most 32 bytes, the only kind a network deals from, stays
// off the heap.
func TestSimDeriveAllocs(t *testing.T) {
	master := []byte("net-12345")
	var sink [32]byte
	index := 0
	if got := testing.AllocsPerRun(100, func() {
		index++
		sink = simDerive(master, 1, index)
	}); got != 0 {
		t.Fatalf("simDerive with a %d-byte master allocates %v times, want 0", len(master), got)
	}
	_ = sink
}
