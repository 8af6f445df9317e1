package mont

import (
	"fmt"
	"math/big"
	"testing"
)

// BenchmarkMontMul measures one Montgomery multiplication at the widths the
// simulator runs: 4 and 8 words (the primes of 512- and 1024-bit node
// keys) and 16 (the modulus N of a 1024-bit node key, which Verify runs
// on).
func BenchmarkMontMul(b *testing.B) {
	for _, words := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			c := New(topSetModulus(words))
			x := append([]big.Word(nil), c.r2...)
			z := make([]big.Word, c.k)
			t := make([]big.Word, c.MulScratch())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Mul(z, x, c.r2, t)
				x, z = z, x
			}
		})
	}
}

// BenchmarkMontExp measures a full-width window exponentiation, the
// private-key operation under one CRT prime. Each width has a twin,
// words=N-mathbig, that runs the same exponentiation through math/big's
// Exp, so `-bench 'MontExp/words=8'` times both sides of the comparison
// DESIGN.md §10 states for eight-word moduli.
func BenchmarkMontExp(b *testing.B) {
	for _, words := range []int{4, 8} {
		n := topSetModulus(words)
		c := New(n)
		e := new(big.Int).Sub(n, big.NewInt(2))
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			eb := e.Bits()
			z := make([]big.Word, c.k)
			scratch := make([]big.Word, c.ExpScratch())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Exp(z, c.r2, eb, scratch)
			}
		})
		b.Run(fmt.Sprintf("words=%d-mathbig", words), func(b *testing.B) {
			x := new(big.Int).SetBits(append([]big.Word(nil), c.r2...))
			z := new(big.Int)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z.Exp(x, e, n)
			}
		})
	}
}
