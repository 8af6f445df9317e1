package mont

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sync"
	"testing"
)

// diffCase is one differential input: a modulus, a base that may exceed it
// and an exponent. The table below doubles as the fuzz seed corpus.
type diffCase struct {
	name       string
	n, x, y, e *big.Int
}

// topSetModulus is a deterministic odd modulus of exactly words words with
// the top bit set, like a CRT prime or an RSA modulus.
func topSetModulus(words int) *big.Int {
	rng := mrand.New(mrand.NewSource(int64(words)))
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(words)*bits.UintSize))
	n.SetBit(n, words*bits.UintSize-1, 1)
	return n.SetBit(n, 0, 1)
}

// smallTopModulus is an odd modulus of exactly words words whose top word
// is 1 — the shape where the conditional subtraction almost never fires
// and an off-by-one in the carry word would hide behind it.
func smallTopModulus(words int) *big.Int {
	n := topSetModulus(words)
	n.Rsh(n, bits.UintSize-1)
	return n.SetBit(n, 0, 1)
}

func diffTable() []diffCase {
	var cases []diffCase
	rng := mrand.New(mrand.NewSource(7))
	one := big.NewInt(1)
	for words := 1; words <= 17; words++ {
		for _, mod := range []struct {
			shape string
			n     *big.Int
		}{{"top-bit-set", topSetModulus(words)}, {"small-top-word", smallTopModulus(words)}} {
			n := mod.n
			nm1 := new(big.Int).Sub(n, one)
			wide := new(big.Int).Lsh(n, uint(words)*bits.UintSize) // 2k words: needs Reduce's Horner loop
			wide.Add(wide, new(big.Int).Rand(rng, n))
			full := new(big.Int).Rand(rng, n)
			full.SetBit(full, n.BitLen()-1, 1) // full-width exponent
			bases := []*big.Int{big.NewInt(0), one, nm1, new(big.Int).Rand(rng, n),
				new(big.Int).Add(n, big.NewInt(5)), wide}
			exps := []*big.Int{big.NewInt(0), one, big.NewInt(65537), full}
			for bi, x := range bases {
				for ei, e := range exps {
					cases = append(cases, diffCase{
						name: mod.shape, n: n, x: x, y: bases[(bi+ei+1)%len(bases)], e: e,
					})
				}
			}
		}
	}
	return cases
}

// checkDiff runs Mul, SubMod, the window exponentiation and the
// short-exponent chain on one case and compares each with math/big.
func checkDiff(t *testing.T, tc diffCase) {
	t.Helper()
	c := New(tc.n)
	k := c.K()
	if k != len(tc.n.Bits()) || c.BitLen() != tc.n.BitLen() {
		t.Fatalf("K=%d BitLen=%d for a %d-bit modulus", k, c.BitLen(), tc.n.BitLen())
	}
	scratch := make([]big.Word, c.ExpScratch())
	xm, ym, zm, z := make([]big.Word, k), make([]big.Word, k), make([]big.Word, k), make([]big.Word, k)
	toInt := func(v []big.Word) *big.Int {
		c.FromMont(z, v, scratch)
		return new(big.Int).SetBits(append([]big.Word(nil), z...))
	}
	c.Reduce(xm, tc.x.Bits(), scratch)
	c.Reduce(ym, tc.y.Bits(), scratch)
	xr := new(big.Int).Mod(tc.x, tc.n)
	if got := toInt(xm); got.Cmp(xr) != 0 {
		t.Fatalf("%s k=%d: Reduce(%x) = %x, want %x", tc.name, k, tc.x, got, xr)
	}

	c.Mul(zm, xm, ym, scratch)
	want := new(big.Int).Mul(tc.x, tc.y)
	want.Mod(want, tc.n)
	if got := toInt(zm); got.Cmp(want) != 0 {
		t.Fatalf("%s k=%d: Mul(%x, %x) = %x, want %x", tc.name, k, tc.x, tc.y, got, want)
	}

	want.Sub(tc.x, tc.y)
	want.Mod(want, tc.n)
	c.SubMod(zm, xm, ym)
	if got := toInt(zm); got.Cmp(want) != 0 {
		t.Fatalf("%s k=%d: SubMod(%x, %x) = %x, want %x", tc.name, k, tc.x, tc.y, got, want)
	}
	// In place: z may alias either operand.
	copy(zm, xm)
	c.SubMod(zm, zm, ym)
	if got := toInt(zm); got.Cmp(want) != 0 {
		t.Fatalf("%s k=%d: SubMod with z aliasing x differs", tc.name, k)
	}
	copy(zm, ym)
	c.SubMod(zm, xm, zm)
	if got := toInt(zm); got.Cmp(want) != 0 {
		t.Fatalf("%s k=%d: SubMod with z aliasing y differs", tc.name, k)
	}

	want.Exp(xr, tc.e, tc.n)
	if tc.n.Cmp(big.NewInt(1)) == 0 {
		want.SetInt64(0)
	}
	c.Exp(zm, xm, tc.e.Bits(), scratch)
	if got := toInt(zm); got.Cmp(want) != 0 {
		t.Fatalf("%s k=%d: Exp(%x, %x) = %x, want %x", tc.name, k, tc.x, tc.e, got, want)
	}
	c.ExpShort(zm, xm, tc.e.Bits(), scratch)
	if got := toInt(zm); got.Cmp(want) != 0 {
		t.Fatalf("%s k=%d: ExpShort(%x, %x) = %x, want %x", tc.name, k, tc.x, tc.e, got, want)
	}
	// In place: z aliasing x is part of both contracts.
	copy(zm, xm)
	c.Exp(zm, zm, tc.e.Bits(), scratch)
	if got := toInt(zm); got.Cmp(want) != 0 {
		t.Fatalf("%s k=%d: in-place Exp differs", tc.name, k)
	}
}

// TestMontDifferential cross-checks the kernel against math/big for moduli
// of 1–17 words — the unrolled four-word path and the generic loop on both
// sides of it — with top-bit-set and small-top-word moduli, bases 0, 1,
// N−1, ≥ N and two moduli wide, and exponents 0, 1, 65537 and full-width.
func TestMontDifferential(t *testing.T) {
	for _, tc := range diffTable() {
		checkDiff(t, tc)
	}
}

// TestMulUnreducedOperand pins the property ToMont and Reduce rely on: the
// first operand of Mul may be any k-limb value, here all ones.
func TestMulUnreducedOperand(t *testing.T) {
	for words := 1; words <= 9; words++ {
		for _, n := range []*big.Int{topSetModulus(words), smallTopModulus(words)} {
			c := New(n)
			k := c.K()
			x := make([]big.Word, k)
			for i := range x {
				x[i] = ^big.Word(0)
			}
			scratch := make([]big.Word, c.MulScratch())
			xm, z := make([]big.Word, k), make([]big.Word, k)
			c.ToMont(xm, x, scratch)
			c.FromMont(z, xm, scratch)
			want := new(big.Int).SetBits(append([]big.Word(nil), x...))
			want.Mod(want, n)
			if got := new(big.Int).SetBits(z); got.Cmp(want) != 0 {
				t.Fatalf("k=%d: all-ones through the Montgomery domain = %x, want %x", k, got, want)
			}
		}
	}
}

func TestSetBytes(t *testing.T) {
	z := make([]big.Word, 2)
	full := make([]byte, 2*bits.UintSize/8)
	for i := range full {
		full[i] = byte(i + 1)
	}
	for _, b := range [][]byte{nil, {0}, {0, 0, 7}, {1, 2, 3}, full, append([]byte{0, 0}, full...)} {
		if !SetBytes(z, b) {
			t.Fatalf("SetBytes(%x) does not fit", b)
		}
		want := new(big.Int).SetBytes(b)
		if got := new(big.Int).SetBits(append([]big.Word(nil), z...)); got.Cmp(want) != 0 {
			t.Fatalf("SetBytes(%x) = %x", b, got)
		}
	}
	if SetBytes(z, append([]byte{1}, full...)) {
		t.Fatal("SetBytes accepted a value one byte wider than z")
	}
}

func TestNewRejectsEvenModulus(t *testing.T) {
	for _, n := range []*big.Int{big.NewInt(0), big.NewInt(10), big.NewInt(-7)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

// TestContextSharedAcrossGoroutines runs one context from four goroutines
// at once; under -race it shows the context is read-only after New.
func TestContextSharedAcrossGoroutines(t *testing.T) {
	for _, words := range []int{4, 8} {
		n := topSetModulus(words)
		c := New(n)
		e := new(big.Int).Sub(n, big.NewInt(2))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				k := c.K()
				scratch := make([]big.Word, c.ExpScratch())
				xm, z := make([]big.Word, k), make([]big.Word, k)
				for i := 0; i < 20; i++ {
					x := big.NewInt(int64(1000*g + i + 2))
					c.Reduce(xm, x.Bits(), scratch)
					c.Exp(xm, xm, e.Bits(), scratch)
					c.FromMont(z, xm, scratch)
					want := new(big.Int).Exp(x, e, n)
					if got := new(big.Int).SetBits(append([]big.Word(nil), z...)); got.Cmp(want) != 0 {
						t.Errorf("goroutine %d: x=%v: got %x, want %x", g, x, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// fuzzInt decodes length-prefixed big-endian bytes, so one corpus entry
// carries modulus, bases and exponent.
func fuzzInt(data []byte) (*big.Int, []byte) {
	if len(data) < 2 {
		return new(big.Int), nil
	}
	n := int(binary.BigEndian.Uint16(data))
	data = data[2:]
	if n > len(data) {
		n = len(data)
	}
	return new(big.Int).SetBytes(data[:n]), data[n:]
}

func fuzzBytes(vs ...*big.Int) []byte {
	var out []byte
	for _, v := range vs {
		b := v.Bytes()
		out = binary.BigEndian.AppendUint16(out, uint16(len(b)))
		out = append(out, b...)
	}
	return out
}

// FuzzMontExpDifferential feeds arbitrary moduli, bases and exponents
// through the same comparison as TestMontDifferential. The modulus is made
// odd and capped at 17 words, the exponent at the modulus's width.
func FuzzMontExpDifferential(f *testing.F) {
	for _, tc := range diffTable() {
		f.Add(fuzzBytes(tc.n, tc.x, tc.y, tc.e))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, rest := fuzzInt(data)
		x, rest := fuzzInt(rest)
		y, rest := fuzzInt(rest)
		e, _ := fuzzInt(rest)
		n.SetBit(n, 0, 1)
		if n.BitLen() > 17*bits.UintSize || e.BitLen() > n.BitLen()+bits.UintSize {
			t.Skip()
		}
		checkDiff(t, diffCase{name: "fuzz", n: n, x: x, y: y, e: e})
	})
}
