package nsl

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// TestPrimePrefilterMatchesProbablyPrime replays the candidates Prime
// draws from seeded streams and checks that every one the pre-tests turn
// away ProbablyPrime(20) turns away too, so the pre-tests cannot change
// which prime a stream yields. It also checks that both pre-tests bite.
func TestPrimePrefilterMatchesProbablyPrime(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for _, size := range []int{256, 512} {
		for seed := int64(1); seed <= 3; seed++ {
			rnd := mrand.New(mrand.NewSource(seed))
			buf := make([]byte, (size+7)/8)
			p := new(big.Int)
			var trial, fermat, primes int
			for i := 0; i < n; i++ {
				if err := read(rnd, buf); err != nil {
					t.Fatal(err)
				}
				candidate(p, buf, size)
				switch {
				case hasSmallFactor(p.Bits()):
					trial++
				case !fermat2(p):
					fermat++
				default:
					if p.ProbablyPrime(20) {
						primes++
					}
					continue
				}
				if p.ProbablyPrime(20) {
					t.Fatalf("bits=%d seed=%d candidate %d: pre-tests reject the prime %v", size, seed, i, p)
				}
			}
			t.Logf("bits=%d seed=%d: %d candidates, %d fail trial division, %d the Fermat test, %d primes", size, seed, n, trial, fermat, primes)
			if trial < n/2 || fermat == 0 || primes == 0 {
				t.Errorf("bits=%d seed=%d: %d trial, %d Fermat rejections and %d primes in %d candidates: a pre-test does not bite", size, seed, trial, fermat, primes, n)
			}
		}
	}
}

// TestPrimeRejectsFermatLiars feeds Prime composites that pass the base-2
// Fermat test, each followed by a prime of the same length, and checks
// that Prime skips the composite: a base-2 pseudoprime with no factor
// below trialBound, which only ProbablyPrime can reject, and two
// Carmichael numbers, which trial division rejects.
func TestPrimeRejectsFermatLiars(t *testing.T) {
	for _, c := range []struct {
		liar  int64
		small bool // has a factor below trialBound
		prime int64
	}{
		{68512867, false, 68512891}, // 4139 · 16553
		{41041, true, 41047},        // 7 · 11 · 13 · 41
		{825265, true, 825277},      // 5 · 7 · 17 · 19 · 73
	} {
		liar, prime := big.NewInt(c.liar), big.NewInt(c.prime)
		if !fermat2(liar) || liar.ProbablyPrime(20) || !prime.ProbablyPrime(20) {
			t.Fatalf("%v: not a base-2 Fermat liar, or %v not prime", liar, prime)
		}
		if got := hasSmallFactor(liar.Bits()); got != c.small {
			t.Errorf("%v: hasSmallFactor = %v, want %v", liar, got, c.small)
		}
		if !maybePrime(prime) {
			t.Errorf("%v: the pre-tests reject a prime", prime)
		}
		bits := liar.BitLen()
		size := (bits + 7) / 8
		stream := append(liar.FillBytes(make([]byte, size)), prime.FillBytes(make([]byte, size))...)
		got, err := Prime(bytes.NewReader(stream), bits)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(prime) != 0 {
			t.Errorf("Prime(%v, then %v) = %v, want %v", liar, prime, got, prime)
		}
	}
}

// TestTrialGroupsCoverOddPrimes checks the trial-division table: every odd
// prime below trialBound appears once, in ascending order, each group's
// product is the product of its primes, and no prime reaches 2^15, the
// least candidate.
func TestTrialGroupsCoverOddPrimes(t *testing.T) {
	if trialBound > 1<<15 {
		t.Fatalf("trialBound %d exceeds the least candidate 2^15", trialBound)
	}
	var want []uint
	for p := uint(3); p < trialBound; p += 2 {
		if big.NewInt(int64(p)).ProbablyPrime(0) {
			want = append(want, p)
		}
	}
	var got []uint
	for _, g := range trialGroups {
		prod := new(big.Int).SetUint64(1)
		for _, p := range g.primes {
			prod.Mul(prod, new(big.Int).SetUint64(uint64(p)))
		}
		if !prod.IsUint64() || prod.Uint64() != uint64(g.prod) {
			t.Errorf("group %v: product %d, want %v", g.primes, g.prod, prod)
		}
		got = append(got, g.primes...)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("trial divisors %v\nwant %v", got, want)
	}
}

// FuzzPrimePrefilter checks the pre-tests on arbitrary odd numbers of
// 16 to 512 bits: whatever they reject, ProbablyPrime(20) rejects.
func FuzzPrimePrefilter(f *testing.F) {
	for _, n := range []int64{68512867, 41041, 825265, 65537, 1<<15 + 1, 1<<16 - 1} {
		f.Add(big.NewInt(n).Bytes())
	}
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 64 {
			b = b[:64]
		}
		n := new(big.Int).SetBytes(b)
		n.SetBit(n, 0, 1)
		if n.BitLen() < 16 {
			n.SetBit(n, 15, 1)
		}
		if !maybePrime(n) && n.ProbablyPrime(20) {
			t.Fatalf("the pre-tests reject the prime %v", n)
		}
	})
}

// BenchmarkGenerateKeyPair draws successive key pairs from one seeded
// stream: 512 bits is a node key, and 1024 bits has the 512-bit primes of
// a thresh.RSADealer modulus.
func BenchmarkGenerateKeyPair(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			rnd := mrand.New(mrand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := GenerateKeyPair(bits, rnd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
