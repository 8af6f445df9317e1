// Package mont is the repository's one Montgomery-arithmetic kernel: a
// per-modulus context under both the node keys (nsl: every signed beacon
// and sensed value) and the threshold keys (thresh: combination and
// verification). math/big's Exp rebuilds its Montgomery state — R² mod N
// by long division, a 16-entry power table on the heap — on every call;
// for the four-word primes of the paper's 512-bit sensor keys that setup
// and the per-call overhead of its vector primitives cost nearly as much as
// the arithmetic. A Ctx pays the setup once per key, and every operation
// after it is a sequence of Mul calls over caller-owned fixed-width limbs.
//
// Invariants:
//
//   - A value is a little-endian limb slice of exactly K() words, kept
//     reduced below the modulus N, so limb equality (Equal) is value
//     equality. Exp and ExpShort need reduced operands and every operation
//     returns a reduced result; an integer from outside enters through
//     ToMont (any k-limb value) or Reduce (any width).
//   - A Ctx is immutable after New. Any number of goroutines may share one;
//     all mutable state lives in the z and scratch arguments.
//   - Nothing here runs in constant time. The callers are simulation-grade
//     protocol models (see DESIGN.md's substitution table).
//
// Mul has two bodies, chosen by the modulus alone: a straight-line kernel
// for four-word moduli — the 256-bit primes of a 512-bit key on a 64-bit
// machine, where the generic loop's counters, slice bounds and scratch
// traffic are a quarter of the cost — and the generic CIOS loop for every
// other width. Each GOARCH builds exactly one kernel. On amd64 it is one
// assembly routine (mul4_amd64.s) on baseline instructions — MULQ, ADDQ,
// ADCQ, no MULX or ADX and no CPU-feature check — so every amd64 host runs
// the same instructions. Elsewhere it is Go (mul4_generic.go), written on
// the machine word, so on a 32-bit machine it serves 128-bit moduli.
// Montgomery products reduced below N are unique, so both kernels give
// mulGeneric's output word for word (TestMul4MatchesGeneric).
package mont

import (
	"math/big"
	"math/bits"
)

// Ctx is the Montgomery context of one odd modulus N with R = 2^(K·W),
// W the machine word size.
type Ctx struct {
	mod   []big.Word // N, length k
	n0inv big.Word   // -N⁻¹ mod 2^W
	r2    []big.Word // R² mod N
	one   []big.Word // R mod N — the Montgomery representation of 1
	lit1  []big.Word // literal 1, FromMont's multiplier
	k     int
}

// New builds the context for n, which must be odd and positive: Montgomery
// reduction is undefined for an even modulus, so callers holding a modulus
// from outside check it first.
func New(n *big.Int) *Ctx {
	if n.Sign() <= 0 || n.Bit(0) == 0 {
		panic("mont: modulus must be odd and positive")
	}
	words := n.Bits()
	k := len(words)
	c := &Ctx{mod: append([]big.Word(nil), words...), k: k}
	// -N⁻¹ mod 2^W by Hensel lifting: the inverse of an odd number doubles
	// its correct low bits each iteration (3 bits to start: n0² ≡ 1 mod 8).
	n0 := uint(words[0])
	inv := n0
	for i := 0; i < 6; i++ {
		inv *= 2 - n0*inv
	}
	c.n0inv = big.Word(-inv)
	w := uint(bits.UintSize)
	r := new(big.Int).Lsh(big.NewInt(1), uint(k)*w)
	c.one = c.fixed(r.Mod(r, n))
	rr := new(big.Int).Lsh(big.NewInt(1), 2*uint(k)*w)
	c.r2 = c.fixed(rr.Mod(rr, n))
	c.lit1 = make([]big.Word, k)
	c.lit1[0] = 1
	return c
}

// fixed widens v (reduced below N) to k limbs.
func (c *Ctx) fixed(v *big.Int) []big.Word {
	out := make([]big.Word, c.k)
	copy(out, v.Bits())
	return out
}

// K is the modulus width in words, the length of every value.
func (c *Ctx) K() int { return c.k }

// BitLen is the modulus length in bits.
func (c *Ctx) BitLen() int {
	return c.k*bits.UintSize - bits.LeadingZeros(uint(c.mod[c.k-1]))
}

// Modulus returns N's limbs. The slice is shared and must not be written.
func (c *Ctx) Modulus() []big.Word { return c.mod }

// One returns R mod N, the Montgomery form of 1. The slice is shared and
// must not be written.
func (c *Ctx) One() []big.Word { return c.one }

// MulScratch is the scratch length Mul, ToMont and FromMont need.
func (c *Ctx) MulScratch() int { return c.k + 1 }

// Mul computes z = x·y·R⁻¹ mod N. y must be reduced below N; x may be any
// k-limb value (the sum x·y + m·N then stays below 2·R·N, so the single
// conditional subtraction still lands below N), which is what lets ToMont
// and Reduce feed unreduced words through it. z must not alias x or y; t is
// scratch of length ≥ MulScratch().
func (c *Ctx) Mul(z, x, y, t []big.Word) {
	if c.k == 4 {
		c.mul4(z, x, y)
		return
	}
	c.mulGeneric(z, x, y, t)
}

// mulGeneric is CIOS Montgomery multiplication with the multiply-accumulate
// and reduction passes fused into one sweep over the accumulator: per outer
// limb, t[j] is read once and t[j-1] written once, with two independent
// carry chains.
//
// Carry-chain bound: each chain tracks the high word of a quantity of the
// form a·b + c + d with a, b, c, d < 2^W, which is at most 2^2W − 1, so
// the incremental carry adds cannot overflow.
func (c *Ctx) mulGeneric(z, x, y, t []big.Word) {
	k := c.k
	t = t[:k+1]
	for i := range t {
		t[i] = 0
	}
	n0 := uint(c.n0inv)
	for i := 0; i < k; i++ {
		xi := uint(x[i])
		// j = 0 peeled: the updated low limb determines m; after adding
		// m·N the low limb is zero by construction and is shifted out.
		hi, lo := bits.Mul(xi, uint(y[0]))
		lo, cc := bits.Add(lo, uint(t[0]), 0)
		c1 := hi + cc
		m := lo * n0
		hi2, lo2 := bits.Mul(m, uint(c.mod[0]))
		_, cc = bits.Add(lo2, lo, 0)
		c2 := hi2 + cc
		for j := 1; j < k; j++ {
			hi, lo = bits.Mul(xi, uint(y[j]))
			lo, cc = bits.Add(lo, uint(t[j]), 0)
			hi += cc
			lo, cc = bits.Add(lo, c1, 0)
			c1 = hi + cc
			hi2, lo2 = bits.Mul(m, uint(c.mod[j]))
			lo2, cc = bits.Add(lo2, lo, 0)
			hi2 += cc
			lo2, cc = bits.Add(lo2, c2, 0)
			c2 = hi2 + cc
			t[j-1] = big.Word(lo2)
		}
		s, cc1 := bits.Add(c1, c2, 0)
		s, cc2 := bits.Add(s, uint(t[k]), 0)
		t[k-1] = big.Word(s)
		t[k] = big.Word(cc1 + cc2)
	}
	copy(z, t[:k])
	if t[k] != 0 || !Less(z, c.mod) {
		sub(z, c.mod)
	}
}

// ToMont computes z = x·R mod N for any k-limb x (reduced or not).
func (c *Ctx) ToMont(z, x, t []big.Word) { c.Mul(z, x, c.r2, t) }

// FromMont computes z = x·R⁻¹ mod N, taking x out of Montgomery form.
func (c *Ctx) FromMont(z, x, t []big.Word) { c.Mul(z, x, c.lit1, t) }

// ShortScratch is the scratch length Reduce and ExpShort need: two values
// and Mul's scratch.
func (c *Ctx) ShortScratch() int { return 2*c.k + c.MulScratch() }

// Reduce computes z = x·R mod N — the Montgomery form of x mod N — for an
// x of any length, by Horner's rule over k-limb chunks from the top: the
// running value moves up one chunk (a Mul by R²) and the next chunk, taken
// into the Montgomery domain, is added. This is how a 2k-word base is
// brought below a k-word CRT prime once per exponentiation, without a long
// division. scratch must hold ShortScratch() words; z must not alias x.
func (c *Ctx) Reduce(z, x, scratch []big.Word) {
	k := c.k
	part, acc, t := scratch[:k], scratch[k:2*k], scratch[2*k:]
	for i := range z[:k] {
		z[i] = 0
	}
	for top := len(x); top > 0; {
		lo := (top - 1) / k * k
		chunk := x[lo:top]
		if len(chunk) < k { // only the top chunk can be short
			for i := range part {
				part[i] = 0
			}
			copy(part, chunk)
			chunk = part
		}
		top = lo
		c.Mul(acc, z, c.r2, t)
		c.Mul(z, chunk, c.r2, t)
		c.addMod(z, acc)
	}
}

// addMod computes z = z + y mod N for reduced z, y.
func (c *Ctx) addMod(z, y []big.Word) {
	var carry uint
	for i := range z {
		s, cc := bits.Add(uint(z[i]), uint(y[i]), carry)
		z[i] = big.Word(s)
		carry = cc
	}
	if carry != 0 || !Less(z, c.mod) {
		sub(z, c.mod)
	}
}

// ExpScratch is the scratch length Exp needs: a 16-entry power table, two
// accumulators and Mul's scratch.
func (c *Ctx) ExpScratch() int { return 18*c.k + c.MulScratch() }

// Exp computes z = x^e in the Montgomery domain (x and z in Montgomery
// form, e a little-endian limb slice as big.Int.Bits returns it) with a
// fixed 4-bit window: fifteen multiplies build the table x⁰..x¹⁵, then
// every window costs four squarings and, when it is non-zero, one multiply.
// Squarings are skipped while the accumulator is still 1. scratch must hold
// ExpScratch() words; z may alias x.
func (c *Ctx) Exp(z, x, e, scratch []big.Word) {
	k := c.k
	table := scratch[:16*k]
	acc, spare := scratch[16*k:17*k], scratch[17*k:18*k]
	t := scratch[18*k:]
	copy(table[:k], c.one)
	copy(table[k:2*k], x)
	for i := 2; i < 16; i++ {
		c.Mul(table[i*k:(i+1)*k], table[(i-1)*k:i*k], table[k:2*k], t)
	}
	started := false
	for i := len(e) - 1; i >= 0; i-- {
		w := uint(e[i])
		for shift := bits.UintSize - 4; shift >= 0; shift -= 4 {
			if started {
				c.Mul(spare, acc, acc, t)
				c.Mul(acc, spare, spare, t)
				c.Mul(spare, acc, acc, t)
				c.Mul(acc, spare, spare, t)
			}
			d := int(w>>uint(shift)) & 15
			if d == 0 {
				continue
			}
			if !started {
				copy(acc, table[d*k:(d+1)*k])
				started = true
				continue
			}
			c.Mul(spare, acc, table[d*k:(d+1)*k], t)
			acc, spare = spare, acc
		}
	}
	if !started {
		acc = c.one
	}
	copy(z, acc)
}

// ExpShort computes z = x^e in the Montgomery domain by plain left-to-right
// square-and-multiply — the public-exponent chain, where a window table
// would cost more than it saves (e = 65537 is sixteen squarings and one
// multiply). scratch must hold ShortScratch() words; z may alias x.
func (c *Ctx) ExpShort(z, x, e, scratch []big.Word) {
	k := c.k
	acc, spare := scratch[:k], scratch[k:2*k]
	t := scratch[2*k:]
	started := false
	for i := len(e) - 1; i >= 0; i-- {
		w := uint(e[i])
		for bit := bits.UintSize - 1; bit >= 0; bit-- {
			if started {
				c.Mul(spare, acc, acc, t)
				acc, spare = spare, acc
			}
			if w>>uint(bit)&1 == 0 {
				continue
			}
			if !started {
				copy(acc, x)
				started = true
				continue
			}
			c.Mul(spare, acc, x, t)
			acc, spare = spare, acc
		}
	}
	if !started {
		acc = c.one
	}
	copy(z, acc)
}

// SetBytes sets z to the big-endian integer b (leading zero bytes allowed)
// and reports whether it fit z's width; on false z is unspecified.
func SetBytes(z []big.Word, b []byte) bool {
	const wordBytes = bits.UintSize / 8
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	if len(b) > len(z)*wordBytes {
		return false
	}
	for i := range z {
		z[i] = 0
	}
	for i, j := len(b)-1, 0; i >= 0; i, j = i-1, j+1 {
		z[j/wordBytes] |= big.Word(b[i]) << (8 * uint(j%wordBytes))
	}
	return true
}

// Less reports x < y for equal-length limb slices.
func Less(x, y []big.Word) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// Equal reports x == y for equal-length limb slices.
func Equal(x, y []big.Word) bool {
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// sub computes x -= y in place.
func sub(x, y []big.Word) {
	var borrow uint
	for i := range x {
		d, b := bits.Sub(uint(x[i]), uint(y[i]), borrow)
		x[i] = big.Word(d)
		borrow = b
	}
}
