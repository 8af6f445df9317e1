package nsl

import (
	"bytes"
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"testing"

	"innercircle/internal/crypto/mont"
)

// prefilter is the cheap front of isPrime: trial division and the
// Miller–Rabin round to base 2, which between them turn away almost every
// composite candidate.
func prefilter(n *big.Int) bool { return !hasSmallFactor(n.Bits()) && base2(n) }

// base2 runs the base-2 round alone on the odd n.
func base2(n *big.Int) bool {
	pr := newProbe(n, nil)
	return pr.base2()
}

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
			var trial, round2, primes int
			for i := 0; i < n; i++ {
				if err := read(rnd, buf); err != nil {
					t.Fatal(err)
				}
				candidate(p, buf, size)
				switch {
				case hasSmallFactor(p.Bits()):
					trial++
				case !base2(p):
					round2++
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
			t.Logf("bits=%d seed=%d: %d candidates, %d fail trial division, %d the base-2 round, %d primes", size, seed, n, trial, round2, primes)
			if trial < n/2 || round2 == 0 || primes == 0 {
				t.Errorf("bits=%d seed=%d: %d trial, %d base-2 rejections and %d primes in %d candidates: a pre-test does not bite", size, seed, trial, round2, primes, n)
			}
		}
	}
}

// TestPrimeRejectsFermatLiars feeds Prime composites that pass the base-2
// Fermat test, each followed by a prime of the same length, and checks
// that Prime skips the composite: a base-2 pseudoprime with no factor
// below trialBound, which only the exponentiations can reject, and two
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
		fermat := new(big.Int).Exp(big.NewInt(2), new(big.Int).Sub(liar, big.NewInt(1)), liar)
		if fermat.Cmp(big.NewInt(1)) != 0 || liar.ProbablyPrime(20) || !prime.ProbablyPrime(20) {
			t.Fatalf("%v: not a base-2 Fermat liar, or %v not prime", liar, prime)
		}
		if got := hasSmallFactor(liar.Bits()); got != c.small {
			t.Errorf("%v: hasSmallFactor = %v, want %v", liar, got, c.small)
		}
		if !prefilter(prime) {
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

// FuzzPrimePrefilter checks the pre-tests (trial division and the base-2
// round) on arbitrary odd numbers of 16 to 512 bits: whatever they
// reject, ProbablyPrime(20) rejects.
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
		if !prefilter(n) && n.ProbablyPrime(20) {
			t.Fatalf("the pre-tests reject the prime %v", n)
		}
	})
}

// TestIsProbablePrimeMatchesProbablyPrime replays the candidates Prime
// draws from seeded streams at five sizes and checks that IsProbablePrime
// gives math/big's ProbablyPrime(20) verdict on every one.
func TestIsProbablePrimeMatchesProbablyPrime(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 2000
	}
	for _, size := range []int{64, 128, 256, 512, 1024} {
		rnd := mrand.New(mrand.NewSource(int64(size)))
		buf := make([]byte, (size+7)/8)
		p := new(big.Int)
		primes := 0
		for i := 0; i < n; i++ {
			if err := read(rnd, buf); err != nil {
				t.Fatal(err)
			}
			candidate(p, buf, size)
			want := p.ProbablyPrime(20)
			if got := IsProbablePrime(p); got != want {
				t.Fatalf("bits=%d candidate %d: IsProbablePrime(%v) = %v, ProbablyPrime(20) = %v", size, i, p, got, want)
			}
			if want {
				primes++
			}
		}
		t.Logf("bits=%d: %d candidates, %d primes", size, n, primes)
		if primes == 0 {
			t.Errorf("bits=%d: no prime in %d candidates; the test compares rejections only", size, n)
		}
	}
}

// strongPseudoprimes are composites that pass the Miller–Rabin round to
// base 2 (OEIS A001262 and larger terms of it): 2047 = 23·89,
// 3277 = 29·113, 4033 = 37·109, 4681 = 31·151, 8321 = 53·157, and
// three beyond 2^31 with no factor below trialBound.
var strongPseudoprimes = []int64{2047, 3277, 4033, 4681, 8321, 3215031751, 2152302898747, 3474749660383}

// lucasPseudoprimes are the composites below 10^6 that pass the extra
// strong Lucas test with Baillie's parameters, OEIS A217719.
var lucasPseudoprimes = []int64{989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059,
	72389, 73919, 75077, 100127, 113573, 125249, 137549, 137801, 153931, 155819, 161027,
	162133, 189419, 218321, 231703, 249331, 370229, 429479, 430127, 459191, 473891, 480689,
	600059, 621781, 632249, 635627, 645209, 719399, 851927, 878249, 920831, 966779, 972311}

// TestIsProbablePrimeFixedCases checks IsProbablePrime against
// ProbablyPrime(20) on every integer below 10 000 (math/big's table below
// 64, even numbers, and the primes below trialBound, each a divisor in the
// trial table), negative numbers, and composites built to pass parts of
// the check: strong base-2 pseudoprimes, the Carmichael numbers 41041 and
// 825265, the base-2 Fermat liar 68512867, the extra strong Lucas
// pseudoprimes and squares of primes, which no P makes Jacobi(P²−4, n)
// = −1, so the Lucas test's search reaches the square check at P = 40.
func TestIsProbablePrimeFixedCases(t *testing.T) {
	var cases []*big.Int
	for v := int64(-3); v < 10000; v++ {
		cases = append(cases, big.NewInt(v))
	}
	composites := append([]int64{41041, 825265, 68512867}, strongPseudoprimes...)
	composites = append(composites, lucasPseudoprimes...)
	for _, c := range composites {
		cases = append(cases, big.NewInt(c))
	}
	var squares []*big.Int
	for _, p := range []*big.Int{big.NewInt(1093), big.NewInt(3511), big.NewInt(4099), big.NewInt(65537),
		big.NewInt(2147483647), new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))} {
		squares = append(squares, new(big.Int).Mul(p, p))
	}
	cases = append(cases, squares...)
	cases = append(cases, new(big.Int).Lsh(big.NewInt(1), 200), new(big.Int).Neg(big.NewInt(7)))
	for _, n := range cases {
		if got, want := IsProbablePrime(n), n.ProbablyPrime(20); got != want {
			t.Errorf("IsProbablePrime(%v) = %v, ProbablyPrime(20) = %v", n, got, want)
		}
	}
	for _, c := range composites {
		if IsProbablePrime(big.NewInt(c)) {
			t.Errorf("IsProbablePrime(%d) accepts a composite", c)
		}
	}
	// Each strong pseudoprime passes the base-2 round and only a later
	// test turns it away; each square of a large prime fails the Lucas
	// test at the square check.
	for _, c := range strongPseudoprimes {
		n := big.NewInt(c)
		if pr := newProbe(n, nil); !pr.base2() || pr.lucas() {
			t.Errorf("%d: base-2 round %v, Lucas test %v; want a strong pseudoprime the Lucas test rejects", c, pr.base2(), pr.lucas())
		}
	}
	for _, sq := range squares {
		if pr := newProbe(sq, nil); pr.lucas() {
			t.Errorf("%v, a square, passes the Lucas test", sq)
		}
	}
}

// TestLucasHalf checks the Lucas test alone on every odd n in
// [101, 200 000): it passes every prime, and the composites it passes are
// exactly the terms of OEIS A217719 in that range, each of which the whole
// check rejects. With the base-2 round beside it, it is math/big's
// Baillie–PSW test, ProbablyPrime(0).
func TestLucasHalf(t *testing.T) {
	const end = 200000
	want := map[int64]bool{}
	for _, c := range lucasPseudoprimes {
		if c < end {
			want[c] = true
		}
	}
	for v := int64(101); v < end; v += 2 {
		n := big.NewInt(v)
		pr := newProbe(n, nil)
		lucas := pr.lucas()
		prime := n.ProbablyPrime(20)
		if lucas != (prime || want[v]) {
			t.Fatalf("%d: Lucas test %v, prime %v, A217719 term %v", v, lucas, prime, want[v])
		}
		if bpsw := pr.base2() && lucas; bpsw != n.ProbablyPrime(0) {
			t.Fatalf("%d: base-2 round and Lucas test %v, ProbablyPrime(0) %v", v, bpsw, !bpsw)
		}
	}
}

// TestJacobi checks the Jacobi symbol of small numerators over one- to
// three-limb odd denominators against big.Jacobi.
func TestJacobi(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(1))
	for i := 0; i < 20000; i++ {
		limbs := 1 + i%3
		n := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), uint(limbs*bits.UintSize)))
		if i%7 == 0 {
			n.SetInt64(rnd.Int63n(1000))
		}
		n.SetBit(n, 0, 1)
		a := uint(rnd.Int63n(1 << 20))
		if i%5 == 0 {
			p := uint(3 + rnd.Intn(200))
			a = p*p - 4
		}
		if got, want := jacobi(a, n.Bits()), big.Jacobi(new(big.Int).SetUint64(uint64(a)), n); got != want {
			t.Fatalf("jacobi(%d, %v) = %d, big.Jacobi %d", a, n, got, want)
		}
	}
}

// TestDrawnBasesPinned pins the first three Miller–Rabin bases drawn for
// two Mersenne primes on each word size, as math/big's
// probablyPrimeMillerRabin draws them: 2^61−1 is one limb on a 64-bit
// machine and two on a 32-bit one, 2^127−1 two and four.
func TestDrawnBasesPinned(t *testing.T) {
	want := map[int]map[uint][]string{
		64: {
			61:  {"128841776182885383", "812802541182432936", "2248371783276900360"},
			127: {"21174400214808910611050599166157456320", "116897559440542108241804027518747217152", "63526182830379522385110889901642153328"},
		},
		32: {
			61:  {"1208429381069505604", "1156872559545850768", "1140434404413606660"},
			127: {"148946419627191546799699632787588580420", "53260742452854931187452384757704624900", "106726148313957896733538959859983253138"},
		},
	}[bits.UintSize]
	for _, e := range []uint{61, 127} {
		n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), e), big.NewInt(1))
		pr := newProbe(n, nil)
		d := pr.baseDraw()
		for i, w := range want[e] {
			d.next(pr.base)
			if got := new(big.Int).SetBits(append([]big.Word(nil), pr.base...)).String(); got != w {
				t.Errorf("2^%d−1: base %d = %s, want %s", e, i, got, w)
			}
		}
	}
}

// TestIsPrimeAllocations checks that the check allocates, for a candidate
// that passes trial division and fails the base-2 round (nearly every
// composite that reaches an exponentiation), only what building its
// Montgomery context does: up to stackWordsP limbs every working value
// lives on the stack.
func TestIsPrimeAllocations(t *testing.T) {
	if raceEnabled {
		// The race detector's sync.Pool drops items at random, so the
		// count of the division inside the context build varies.
		t.Skip("allocation counts vary under the race detector")
	}
	rnd := mrand.New(mrand.NewSource(1))
	for _, size := range []int{stackWordsP * bits.UintSize / 2, stackWordsP * bits.UintSize} {
		buf := make([]byte, size/8)
		p := new(big.Int)
		for {
			if err := read(rnd, buf); err != nil {
				t.Fatal(err)
			}
			candidate(p, buf, size)
			if !hasSmallFactor(p.Bits()) && !base2(p) {
				break
			}
		}
		ctx := testing.AllocsPerRun(20, func() { mont.New(p) })
		if got := testing.AllocsPerRun(20, func() { isPrime(p) }); got != ctx {
			t.Errorf("bits=%d: isPrime allocates %.0f times, building the context %.0f", size, got, ctx)
		}
	}
}

// FuzzPrimalityMatchesProbablyPrime checks IsProbablePrime against
// ProbablyPrime(20) on arbitrary non-negative numbers of up to 512 bits.
func FuzzPrimalityMatchesProbablyPrime(f *testing.F) {
	for _, n := range append(append([]int64{0, 1, 2, 3, 4, 63, 64, 65, 4093, 4095, 4097, 41041, 825265, 68512867},
		strongPseudoprimes...), lucasPseudoprimes[:5]...) {
		f.Add(big.NewInt(n).Bytes())
	}
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 64 {
			b = b[:64]
		}
		n := new(big.Int).SetBytes(b)
		if got, want := IsProbablePrime(n), n.ProbablyPrime(20); got != want {
			t.Fatalf("IsProbablePrime(%v) = %v, ProbablyPrime(20) = %v", n, got, want)
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

// BenchmarkIsProbablePrime times the check on the two inputs that set a
// prime search's cost: a candidate that passes trial division and that the
// base-2 round rejects (nearly every composite that reaches an
// exponentiation), and a prime, which pays for all twenty-one rounds and
// the Lucas test. 256 and 512 bits are the primes of a 512-bit node key
// and of a 1024-bit threshold modulus.
func BenchmarkIsProbablePrime(b *testing.B) {
	for _, size := range []int{256, 512} {
		rnd := mrand.New(mrand.NewSource(1))
		buf := make([]byte, size/8)
		var composite, prime *big.Int
		for composite == nil || prime == nil {
			if err := read(rnd, buf); err != nil {
				b.Fatal(err)
			}
			p := new(big.Int)
			candidate(p, buf, size)
			switch {
			case hasSmallFactor(p.Bits()):
			case !base2(p):
				composite = p
			case IsProbablePrime(p):
				prime = p
			}
		}
		for _, in := range []struct {
			name string
			n    *big.Int
		}{{"composite", composite}, {"prime", prime}} {
			b.Run(fmt.Sprintf("bits=%d/%s", size, in.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					IsProbablePrime(in.n)
				}
			})
		}
	}
}
