package nsl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"innercircle/internal/crypto/mont"
)

// directSig is the signature of h without the memo or the CRT path:
// h^d mod N.
func directSig(kp *KeyPair, h []big.Word) []byte {
	return new(big.Int).Exp(new(big.Int).SetBits(append([]big.Word(nil), h...)), kp.d, kp.Pub.N).Bytes()
}

// checkSign signs h through the memo, compares the result with the direct
// reference and then scribbles over it: the memo must have handed out a
// copy.
func checkSign(t *testing.T, kp *KeyPair, h []big.Word, what string) {
	t.Helper()
	got := kp.sign(h)
	if want := directSig(kp, h); !bytes.Equal(got, want) {
		t.Fatalf("%s: signature %x, want %x", what, got, want)
	}
	for i := range got {
		got[i] ^= 0xff
	}
}

// sameLowWord returns h with one word above the low one changed and the
// result still below N: the same memo slot and the same low word, another
// value.
func sameLowWord(kp *KeyPair, h []big.Word, j int) []big.Word {
	v := append([]big.Word(nil), h...)
	v[1+j%(len(v)-1)] ^= 1 << (j % 7)
	if !mont.Less(v, kp.Pub.mc.Modulus()) {
		return nil
	}
	return v
}

// TestSignMemoMatchesReference holds every Sign to h^d mod N: first,
// repeated and interleaved messages, two messages whose h share a slot,
// and two values of h that share their whole low word. Each returned
// signature is overwritten after the check, so a memo that handed out its
// own bytes fails the next hit.
func TestSignMemoMatchesReference(t *testing.T) {
	for _, c := range []struct {
		bits int
		seed int64
	}{{512, 1}, {1024, 3}} {
		kp := pinnedKey(t, c.bits, c.seed)
		msgs := make([][]byte, 12)
		for i := range msgs {
			msgs[i] = []byte(fmt.Sprintf("memo-msg-%d", i))
		}
		for round, order := range [][]int{
			{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, // first
			{0, 0, 0, 5, 5, 11, 11, 11},            // repeated
			{3, 9, 3, 1, 9, 7, 1, 3, 0, 11, 0, 7},  // interleaved
		} {
			for _, i := range order {
				sig := kp.Sign(msgs[i])
				if want := directSig(kp, hashWords(msgs[i], kp.Pub)); !bytes.Equal(sig, want) {
					t.Fatalf("bits=%d round %d msg %d: signature differs from h^d mod N", c.bits, round, i)
				}
				sig[0] ^= 0xff
			}
		}

		// Two messages in one slot evict each other.
		a := hashWords([]byte("slot-a"), kp.Pub)
		var b []big.Word
		for i := 0; b == nil; i++ {
			if h := hashWords([]byte(fmt.Sprintf("slot-b-%d", i)), kp.Pub); slot(h) == slot(a) {
				b = h
			}
		}
		for i, h := range [][]big.Word{a, b, a, a, b, b, a} {
			checkSign(t, kp, h, fmt.Sprintf("bits=%d slot pair, step %d", c.bits, i))
		}

		// Two values with the same low word: only the rest of h tells them
		// apart.
		for j := 0; j < 4; j++ {
			v := sameLowWord(kp, a, j)
			if v == nil {
				continue
			}
			for i, h := range [][]big.Word{a, v, a, v, v} {
				checkSign(t, kp, h, fmt.Sprintf("bits=%d low-word pair %d, step %d", c.bits, j, i))
			}
		}
	}
}

// TestSignMemoConcurrent signs overlapping message sets with one key from
// several goroutines, the first signature included; -race checks the
// memo's locking.
func TestSignMemoConcurrent(t *testing.T) {
	kp := pinnedKey(t, 512, 2)
	msgs := make([][]byte, 96) // more than the slots: eviction under load
	want := make([][]byte, len(msgs))
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("concurrent-%d", i))
		want[i] = directSig(kp, hashWords(msgs[i], kp.Pub))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				i := (g*24 + n*7) % len(msgs)
				if sig := kp.Sign(msgs[i]); !bytes.Equal(sig, want[i]) {
					t.Errorf("goroutine %d, msg %d: signature differs from h^d mod N", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// sigKeys are the fuzz target's keys, 512 and 1024 bits, drawn on first
// use.
var sigKeys = map[int]*KeyPair{}

func fuzzKey(t *testing.T, sel byte) *KeyPair {
	idx := int(sel & 7)
	if kp, ok := sigKeys[idx]; ok {
		return kp
	}
	bits := 512
	if idx >= 4 {
		bits = 1024
	}
	kp, err := GenerateKeyPair(bits, mrand.New(mrand.NewSource(int64(100+idx))))
	if err != nil {
		t.Fatal(err)
	}
	sigKeys[idx] = kp
	return kp
}

// FuzzSignMemoDifferential signs fuzzed messages, in a fuzzed order with
// repeats, and values of h that share a message's low word, on keys of 512
// and 1024 bits, and holds every result to the CRT private operation
// without the memo. The keys outlive an input, so one input's entries are
// the next one's hits and evictions.
func FuzzSignMemoDifferential(f *testing.F) {
	f.Add(byte(0), []byte("a\x00b\x00c"), []byte{0, 1, 0, 2, 0x81, 0, 1, 1})
	f.Add(byte(5), []byte("beacon\x00value"), []byte{0, 0, 0x80, 0x80, 1, 0x91, 1})
	f.Add(byte(7), []byte{}, []byte{0, 0})
	f.Fuzz(func(t *testing.T, sel byte, data, order []byte) {
		if len(order) > 64 {
			order = order[:64]
		}
		kp := fuzzKey(t, sel)
		msgs := bytes.SplitN(data, []byte{0}, 8)
		for _, o := range order {
			msg := msgs[int(o&0x7f)%len(msgs)]
			h := hashWords(msg, kp.Pub)
			if o&0x80 != 0 {
				if h = sameLowWord(kp, h, int(o)); h == nil {
					continue
				}
			}
			want := kp.privExp(h).Bytes()
			got := kp.sign(h)
			if !bytes.Equal(got, want) {
				t.Fatalf("msg %q (variant %v): memo %x, reference %x", msg, o&0x80 != 0, got, want)
			}
			got[0] ^= 0xff
			if o&0x80 == 0 {
				if sig := kp.Sign(msg); !bytes.Equal(sig, want) {
					t.Fatalf("msg %q: Sign after a scribbled copy %x, reference %x", msg, sig, want)
				}
			}
		}
	})
}

// BenchmarkSign times a miss (a message never signed: the CRT private
// operation plus the store) and a hit (the hash, the compare and the copy).
func BenchmarkSign(b *testing.B) {
	kp, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("beacon: neighbours of node 7, seq 00000000")
	var seq uint64 // across the runs of b.N, so no miss repeats a message
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq++
			binary.BigEndian.PutUint64(msg[len(msg)-8:], seq)
			sinkSig = kp.Sign(msg)
		}
	})
	b.Run("hit", func(b *testing.B) {
		kp.Sign(msg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkSig = kp.Sign(msg)
		}
	})
}

var sinkSig []byte
