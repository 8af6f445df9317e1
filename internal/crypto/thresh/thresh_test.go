package thresh

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// dealers returns both scheme dealers; RSA uses a small modulus so the test
// suite stays fast (the scheme is size-agnostic).
func dealers() map[string]Dealer {
	return map[string]Dealer{
		"sim": NewSimDealer([]byte("test-seed"), 128),
		"rsa": seededRSA(512, 1),
	}
}

// seededRSA returns an RSA dealer drawing from a stream seeded with seed;
// dealers in one test take distinct seeds so their keys differ.
func seededRSA(bits int, seed int64) *RSADealer {
	return &RSADealer{Bits: bits, Rand: rand.New(rand.NewSource(seed))}
}

func TestSignCombineVerify(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			for _, kn := range []struct{ k, n int }{{1, 3}, {2, 5}, {3, 8}} {
				gk, signers, err := d.Deal(kn.k, kn.n)
				if err != nil {
					t.Fatalf("Deal(%d,%d): %v", kn.k, kn.n, err)
				}
				msg := []byte(fmt.Sprintf("agreed value k=%d", kn.k))
				partials := make([]Partial, 0, kn.k+1)
				for i := 0; i <= kn.k; i++ {
					p, err := signers[i].PartialSign(msg)
					if err != nil {
						t.Fatal(err)
					}
					partials = append(partials, p)
				}
				sig, err := gk.Combine(msg, partials)
				if err != nil {
					t.Fatalf("Combine: %v", err)
				}
				if err := gk.Verify(msg, sig); err != nil {
					t.Fatalf("Verify: %v", err)
				}
			}
		})
	}
}

func TestAnySubsetCombines(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			const k, n = 2, 6
			gk, signers, err := d.Deal(k, n)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("subset test")
			all := make([]Partial, n)
			for i, s := range signers {
				all[i], err = s.PartialSign(msg)
				if err != nil {
					t.Fatal(err)
				}
			}
			r := rand.New(rand.NewSource(7))
			for trial := 0; trial < 10; trial++ {
				perm := r.Perm(n)
				subset := []Partial{all[perm[0]], all[perm[1]], all[perm[2]]}
				sig, err := gk.Combine(msg, subset)
				if err != nil {
					t.Fatalf("subset %v: %v", perm[:3], err)
				}
				if err := gk.Verify(msg, sig); err != nil {
					t.Fatalf("subset %v verify: %v", perm[:3], err)
				}
			}
		})
	}
}

func TestTooFewPartials(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			const k, n = 2, 5
			gk, signers, err := d.Deal(k, n)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("m")
			p0, _ := signers[0].PartialSign(msg)
			p1, _ := signers[1].PartialSign(msg)
			if _, err := gk.Combine(msg, []Partial{p0, p1}); !errors.Is(err, ErrTooFewPartials) {
				t.Fatalf("Combine with k partials err = %v, want ErrTooFewPartials", err)
			}
			// Duplicates of the same index do not help.
			if _, err := gk.Combine(msg, []Partial{p0, p0, p0}); !errors.Is(err, ErrTooFewPartials) {
				t.Fatalf("Combine with duplicate partials err = %v, want ErrTooFewPartials", err)
			}
		})
	}
}

func TestSignatureBoundToMessage(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, signers, err := d.Deal(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("original")
			p0, _ := signers[0].PartialSign(msg)
			p1, _ := signers[1].PartialSign(msg)
			sig, err := gk.Combine(msg, []Partial{p0, p1})
			if err != nil {
				t.Fatal(err)
			}
			if err := gk.Verify([]byte("tampered"), sig); err == nil {
				t.Fatal("signature verified for a different message")
			}
		})
	}
}

func TestCorruptPartialRejected(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, signers, err := d.Deal(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("m")
			good, _ := signers[0].PartialSign(msg)
			bad, _ := signers[1].PartialSign([]byte("other message"))
			// The bad partial is for another message: combining must fail
			// (sim: partial check; rsa: final verification catches it).
			if _, err := gk.Combine(msg, []Partial{good, bad}); err == nil {
				t.Fatal("Combine accepted a corrupt partial")
			}
		})
	}
}

func TestCorruptSignatureRejected(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, signers, err := d.Deal(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("m")
			p0, _ := signers[0].PartialSign(msg)
			p1, _ := signers[1].PartialSign(msg)
			sig, err := gk.Combine(msg, []Partial{p0, p1})
			if err != nil {
				t.Fatal(err)
			}
			sig.Data[len(sig.Data)/2] ^= 0x40
			if err := gk.Verify(msg, sig); err == nil {
				t.Fatal("tampered signature verified")
			}
			if err := gk.Verify(msg, Signature{}); err == nil {
				t.Fatal("empty signature verified")
			}
		})
	}
}

func TestPartialsAreNodeSpecific(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, signers, err := d.Deal(2, 5)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("m")
			// One node replaying its own partial under different claimed
			// indices must not reach the threshold.
			mine, _ := signers[0].PartialSign(msg)
			forged := []Partial{
				mine,
				{Index: 2, Data: mine.Data},
				{Index: 3, Data: mine.Data},
			}
			if _, err := gk.Combine(msg, forged); err == nil {
				t.Fatal("one share impersonated three co-signers")
			}
		})
	}
}

func TestGroupKeyAccessors(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, signers, err := d.Deal(3, 7)
			if err != nil {
				t.Fatal(err)
			}
			if gk.Threshold() != 3 || gk.Players() != 7 {
				t.Fatalf("Threshold/Players = %d/%d, want 3/7", gk.Threshold(), gk.Players())
			}
			if gk.SigBytes() <= 0 {
				t.Fatal("SigBytes must be positive")
			}
			for i, s := range signers {
				if s.Index() != i+1 {
					t.Fatalf("signer %d has index %d", i, s.Index())
				}
			}
		})
	}
}

func TestInvalidDealParams(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			for _, kn := range []struct{ k, n int }{{-1, 2}, {3, 3}, {5, 1}} {
				if _, _, err := d.Deal(kn.k, kn.n); err == nil {
					t.Errorf("Deal(%d,%d) succeeded, want error", kn.k, kn.n)
				}
			}
		})
	}
}

func TestDistinctKeysPerDeal(t *testing.T) {
	d := NewSimDealer([]byte("seed"), 64)
	gk1, s1, err := d.Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	gk2, _, err := d.Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	p0, _ := s1[0].PartialSign(msg)
	p1, _ := s1[1].PartialSign(msg)
	sig, err := gk1.Combine(msg, []Partial{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if err := gk2.Verify(msg, sig); err == nil {
		t.Fatal("signature under key 1 verified under key 2")
	}
}

func TestSimSchemeWireSize(t *testing.T) {
	d := NewSimDealer([]byte("s"), 256)
	gk, _, err := d.Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gk.SigBytes() != 256 {
		t.Fatalf("SigBytes = %d, want configured 256", gk.SigBytes())
	}
}

// TestSimPartialAllocations pins the keyed-MAC scheme's per-message cost:
// a partial signature allocates only the 32 bytes it returns, and checking
// one allocates nothing.
func TestSimPartialAllocations(t *testing.T) {
	gk, signers, err := NewSimDealer([]byte("seed"), 128).Deal(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 60)
	var p Partial
	if n := testing.AllocsPerRun(100, func() { p, _ = signers[1].PartialSign(msg) }); n != 1 {
		t.Errorf("PartialSign: %.0f allocations per call, want 1", n)
	}
	ok := false
	if n := testing.AllocsPerRun(100, func() { ok = gk.VerifyPartial(msg, p) }); n != 0 || !ok {
		t.Errorf("VerifyPartial: %.0f allocations per call (want 0), verdict %v", n, ok)
	}
}
