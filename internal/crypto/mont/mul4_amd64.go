package mont

import "math/big"

// mul4 is Mul for a four-word modulus: the CIOS recurrence of mulGeneric,
// unrolled, in mul4_amd64.s.
func (c *Ctx) mul4(z, x, y []big.Word) {
	mul4((*[4]big.Word)(z), (*[4]big.Word)(x), (*[4]big.Word)(y), (*[4]big.Word)(c.mod), c.n0inv)
}

// mul4 computes z = x·y·R⁻¹ mod n with R = 2^256, for y < n and any x,
// ninv = -n⁻¹ mod 2^64.
//
//go:noescape
func mul4(z, x, y, n *[4]big.Word, ninv big.Word)
