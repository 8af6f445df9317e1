//go:build !amd64

package mont

import (
	"math/big"
	"math/bits"
)

// mul4 is Mul for a four-word modulus: the same CIOS recurrence, one
// multiply-accumulate row and one reduction row per limb of x, with the
// inner loops unrolled and the accumulator in locals instead of a scratch
// slice.
func (c *Ctx) mul4(z, x, y []big.Word) {
	x, y, z = x[:4], y[:4], z[:4]
	mod := c.mod[:4]
	y0, y1, y2, y3 := uint(y[0]), uint(y[1]), uint(y[2]), uint(y[3])
	n0, n1, n2, n3 := uint(mod[0]), uint(mod[1]), uint(mod[2]), uint(mod[3])
	ninv := uint(c.n0inv)
	var t0, t1, t2, t3, t4 uint
	for i := 0; i < 4; i++ {
		xi := uint(x[i])
		var carry, t5 uint
		carry, t0 = madd(xi, y0, t0, 0)
		carry, t1 = madd(xi, y1, t1, carry)
		carry, t2 = madd(xi, y2, t2, carry)
		carry, t3 = madd(xi, y3, t3, carry)
		t4, t5 = bits.Add(t4, carry, 0)
		// m makes the low word of t + m·N vanish; it is shifted out.
		m := t0 * ninv
		carry, _ = madd(m, n0, t0, 0)
		carry, t0 = madd(m, n1, t1, carry)
		carry, t1 = madd(m, n2, t2, carry)
		carry, t2 = madd(m, n3, t3, carry)
		t3, carry = bits.Add(t4, carry, 0)
		t4 = t5 + carry
	}
	// t < 2N: subtract N when the fifth word is set or t ≥ N.
	d0, b := bits.Sub(t0, n0, 0)
	d1, b := bits.Sub(t1, n1, b)
	d2, b := bits.Sub(t2, n2, b)
	d3, b := bits.Sub(t3, n3, b)
	if t4 != 0 || b == 0 {
		t0, t1, t2, t3 = d0, d1, d2, d3
	}
	z[0], z[1], z[2], z[3] = big.Word(t0), big.Word(t1), big.Word(t2), big.Word(t3)
}

// madd returns the high and low words of a·b + t + carry, which cannot
// overflow two words. The carries are folded in with bits.Add(hi, 0, c)
// rather than hi += c: the compiler turns the former into one
// add-with-carry, the latter into three instructions.
func madd(a, b, t, carry uint) (hi, lo uint) {
	hi, lo = bits.Mul(a, b)
	var c uint
	lo, c = bits.Add(lo, t, 0)
	hi, _ = bits.Add(hi, 0, c)
	lo, c = bits.Add(lo, carry, 0)
	hi, _ = bits.Add(hi, 0, c)
	return hi, lo
}
