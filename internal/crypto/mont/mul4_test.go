package mont

import (
	"math/big"
	"math/bits"
	mrand "math/rand"
	"testing"
)

// mul4Case is one input of the four-word differential: a modulus of
// exactly four words, a first operand of any four-word value and a second
// reduced below the modulus. same passes one slice as both operands, the
// way Exp squares.
type mul4Case struct {
	n    *big.Int
	x, y []big.Word
	same bool
}

// mul4Table is the differential's inputs, and the fuzz target's seeds.
// Moduli come in three shapes: the top bit set, like a CRT prime; a top
// word of 1, where the final subtraction almost never fires; and every
// high word set, where t ≥ N is rarest and the subtraction's borrow runs
// through every word. For each: random reduced pairs and the edges — x
// all ones (unreduced), x == y, y = N−1 and zero.
func mul4Table(randomPerModulus int) []mul4Case {
	rng := mrand.New(mrand.NewSource(41))
	pow := func(words int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(words)*bits.UintSize) }
	half := new(big.Int).Rsh(pow(4), 1)
	shapes := []struct{ base, span *big.Int }{ // n = base + a draw below span, made odd
		{half, half},     // top bit set
		{pow(3), pow(3)}, // top word 1
		{new(big.Int).Sub(pow(4), pow(1)), pow(1)}, // high words all ones
	}
	moduli := []*big.Int{topSetModulus(4), smallTopModulus(4)}
	for i := 0; i < 4; i++ {
		for _, sh := range shapes {
			n := new(big.Int).Add(sh.base, new(big.Int).Rand(rng, sh.span))
			moduli = append(moduli, n.SetBit(n, 0, 1))
		}
	}
	ones := make([]big.Word, 4)
	for i := range ones {
		ones[i] = ^big.Word(0)
	}
	var cases []mul4Case
	for _, n := range moduli {
		reduced := func() []big.Word { return limbs4(new(big.Int).Rand(rng, n)) }
		nm1 := limbs4(new(big.Int).Sub(n, big.NewInt(1)))
		zero := make([]big.Word, 4)
		cases = append(cases,
			mul4Case{n: n, x: ones, y: reduced()},
			mul4Case{n: n, x: ones, y: nm1},
			mul4Case{n: n, x: nm1, y: nm1},
			mul4Case{n: n, y: nm1, same: true},
			mul4Case{n: n, x: reduced(), y: nm1},
			mul4Case{n: n, x: ones, y: zero},
			mul4Case{n: n, x: zero, y: reduced()},
		)
		for i := 0; i < randomPerModulus; i++ {
			cases = append(cases,
				mul4Case{n: n, x: reduced(), y: reduced()},
				mul4Case{n: n, y: reduced(), same: true})
		}
	}
	return cases
}

// limbs4 is v's four low limbs.
func limbs4(v *big.Int) []big.Word {
	out := make([]big.Word, 4)
	copy(out, v.Bits())
	return out
}

// checkMul4 runs the GOARCH's four-word body on one case and compares it
// with mulGeneric and with x·y·R⁻¹ mod N from math/big.
func checkMul4(t *testing.T, tc mul4Case) {
	t.Helper()
	c := New(tc.n)
	if c.K() != 4 {
		t.Fatalf("modulus %x has %d words, want 4", tc.n, c.K())
	}
	x := tc.x
	if tc.same {
		x = tc.y
	}
	got, gen := make([]big.Word, 4), make([]big.Word, 4)
	c.mul4(got, x, tc.y)
	c.mulGeneric(gen, x, tc.y, make([]big.Word, c.MulScratch()))
	if !Equal(got, gen) {
		t.Fatalf("n=%x x=%x y=%x: mul4 = %x, mulGeneric = %x", tc.n, x, tc.y, got, gen)
	}
	rinv := new(big.Int).Lsh(big.NewInt(1), 4*bits.UintSize)
	rinv.ModInverse(rinv, tc.n)
	want := new(big.Int).SetBits(append([]big.Word(nil), x...))
	want.Mul(want, new(big.Int).SetBits(append([]big.Word(nil), tc.y...)))
	want.Mul(want, rinv)
	want.Mod(want, tc.n)
	if w := limbs4(want); !Equal(got, w) {
		t.Fatalf("n=%x x=%x y=%x: mul4 = %x, math/big = %x", tc.n, x, tc.y, got, w)
	}
}

// TestMul4MatchesGeneric holds the four-word body this GOARCH builds (the
// assembly on amd64, the Go loop elsewhere) to mulGeneric and math/big,
// output word for word.
func TestMul4MatchesGeneric(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 50
	}
	for _, tc := range mul4Table(n) {
		checkMul4(t, tc)
	}
}

// FuzzMul4Differential feeds arbitrary four-word moduli and operands
// through checkMul4. The modulus is cut to four words, made odd and given
// a top word of at least 1; x is cut to four words, and y is reduced below
// the modulus, then used both apart from x and as x.
func FuzzMul4Differential(f *testing.F) {
	for _, tc := range mul4Table(1) {
		if !tc.same {
			f.Add(fuzzBytes(tc.n, new(big.Int).SetBits(tc.x), new(big.Int).SetBits(tc.y)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, rest := fuzzInt(data)
		x, rest := fuzzInt(rest)
		y, _ := fuzzInt(rest)
		width := new(big.Int).Lsh(big.NewInt(1), 4*bits.UintSize)
		n.Mod(n, width)
		n.SetBit(n, 0, 1)
		n.SetBit(n, 3*bits.UintSize, 1)
		x.Mod(x, width)
		y.Mod(y, n)
		checkMul4(t, mul4Case{n: n, x: limbs4(x), y: limbs4(y)})
		checkMul4(t, mul4Case{n: n, y: limbs4(y), same: true})
	})
}
