package thresh

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"innercircle/internal/crypto/nsl"
)

// randomOddModulus returns an odd modulus of roughly the given bit size
// built from two primes, matching how dealt keys look.
func randomOddModulus(t *testing.T, bits int) *big.Int {
	t.Helper()
	rnd := mrand.New(mrand.NewSource(int64(bits)))
	p, err := nsl.Prime(rnd, bits/2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := nsl.Prime(rnd, bits-bits/2)
	if err != nil {
		t.Fatal(err)
	}
	return new(big.Int).Mul(p, q)
}

// TestMontMulMatchesBigInt cross-checks CIOS multiplication against
// math/big on random reduced operands across modulus sizes.
func TestMontMulMatchesBigInt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(41))
	for _, bits := range []int{128, 512, 1024, 1030} {
		n := randomOddModulus(t, bits)
		c := newMontCtx(n)
		ms := &montScratch{}
		ms.reset(c.K())
		for trial := 0; trial < 50; trial++ {
			x := new(big.Int).Rand(rng, n)
			y := new(big.Int).Rand(rng, n)
			ms.baseNext = 0
			xm := c.toMont(ms, x)
			ym := c.toMont(ms, y)
			zm := ms.alloc(c.K())
			c.Mul(zm, xm, ym, ms.t)
			got := c.fromMont(ms, new(big.Int), zm)
			want := new(big.Int).Mul(x, y)
			want.Mod(want, n)
			if got.Cmp(want) != 0 {
				t.Fatalf("bits=%d trial=%d: mont mul mismatch\n got %v\nwant %v", bits, trial, got, want)
			}
		}
	}
}

// TestMontExpChainMatchesBigInt cross-checks the interleaved multi-base
// chain against the product of big.Int.Exp calls, including empty chains,
// zero exponents, and mixed exponent widths.
func TestMontExpChainMatchesBigInt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(42))
	for _, bits := range []int{128, 512, 1024} {
		n := randomOddModulus(t, bits)
		c := newMontCtx(n)
		ms := &montScratch{}
		ms.reset(c.K())
		for trial := 0; trial < 30; trial++ {
			nbases := trial % 5 // 0..4 bases
			bases := make([][]big.Word, 0, nbases)
			exps := make([]*big.Int, 0, nbases)
			want := big.NewInt(1)
			ms.baseNext = 0
			for i := 0; i < nbases; i++ {
				base := new(big.Int).Rand(rng, n)
				var exp *big.Int
				switch i % 3 {
				case 0:
					exp = new(big.Int).Rand(rng, n) // wide exponent
				case 1:
					exp = big.NewInt(int64(rng.Intn(100))) // narrow, possibly 0
				default:
					exp = new(big.Int).Lsh(big.NewInt(1), uint(rng.Intn(64))) // single bit
				}
				bases = append(bases, c.toMont(ms, base))
				exps = append(exps, exp)
				want.Mul(want, new(big.Int).Exp(base, exp, n))
				want.Mod(want, n)
			}
			dst := ms.alloc(c.K())
			c.expChain(ms, dst, bases, exps)
			got := c.fromMont(ms, new(big.Int), dst)
			if got.Cmp(want) != 0 {
				t.Fatalf("bits=%d trial=%d nbases=%d: expChain mismatch\n got %v\nwant %v", bits, trial, nbases, got, want)
			}
		}
	}
}
