package nsl

import (
	"errors"
	"io"
	"math/big"
	"math/bits"
	"math/rand"

	"innercircle/internal/crypto/mont"
)

// Prime returns a prime of exactly bits bits whose candidates are drawn
// verbatim from r. It is the program's one prime search: unlike
// crypto/rand.Prime, which reads one extra byte at random
// (randutil.MaybeReadByte), it consumes the stream deterministically, and
// the primality check derives its Miller–Rabin bases from the candidate
// itself, so the result is reproducible for a seeded r.
//
// The check is math/big's ProbablyPrime(20), test for test (see
// IsProbablePrime); it stays, and it now runs on the candidate's mont
// context, so the search accepts the primes it always accepted.
func Prime(r io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, errors.New("nsl: prime size too small")
	}
	buf := make([]byte, (bits+7)/8)
	p := new(big.Int)
	for {
		if err := read(r, buf); err != nil {
			return nil, err
		}
		candidate(p, buf, bits)
		if isPrime(p) {
			return new(big.Int).Set(p), nil
		}
	}
}

// candidate sets p to the bits-bit odd number Prime tests for the bytes
// buf read: buf trimmed to exactly bits bits, with the top bit forced
// (exact length) and the low bit (odd).
func candidate(p *big.Int, buf []byte, bits int) {
	buf[0] &= 0xFF >> (uint(len(buf)*8 - bits))
	p.SetBytes(buf)
	p.SetBit(p, bits-1, 1)
	p.SetBit(p, 0, 1)
}

// IsProbablePrime reports whether n is prime, with the verdict of
// math/big's ProbablyPrime(20) for n: exact below 2^64, and above it wrong
// only for a composite that passes a Baillie–PSW test and twenty
// Miller–Rabin rounds, of which none is known. It is the program's one
// primality test.
//
// ProbablyPrime(20) is the conjunction of trial division by the primes up
// to 53, Miller–Rabin rounds to base 2 and to twenty bases drawn from a
// math/rand source seeded with n's low word, and an extra strong Lucas
// test. IsProbablePrime runs the same tests on n's Montgomery context (see
// isPrime), dividing by the odd primes below trialBound instead; a
// divisor there is a proper factor of any n it tests, so the verdicts
// agree wherever ProbablyPrime's own division does not already decide.
// Numbers below trialBound are decided by the divisor table alone.
func IsProbablePrime(n *big.Int) bool {
	x := n.Bits()
	switch {
	case n.Sign() <= 0:
		return false
	case len(x) == 1 && uint(x[0]) < trialBound:
		return smallPrime(uint(x[0]))
	case x[0]&1 == 0:
		return false
	}
	return isPrime(n)
}

// smallPrime reports whether v, below trialBound, is prime: 2, or odd and
// divisible by no odd prime up to its square root.
func smallPrime(v uint) bool {
	if v < 3 || v&1 == 0 {
		return v == 2
	}
	for _, g := range trialGroups {
		for _, p := range g.primes {
			if p*p > v {
				return true
			}
			if v%p == 0 {
				return false
			}
		}
	}
	return true
}

// isPrime is IsProbablePrime for an odd n of at least trialBound. The
// tests run cheapest-rejection first: trial division turns away most
// candidates for a few word divisions each, and the base-2 round nearly
// all of the rest for one exponentiation, so only primes pay for the
// twenty drawn bases and the Lucas test. The working set stays on the
// stack for n of up to stackWordsP words.
func isPrime(n *big.Int) bool {
	if hasSmallFactor(n.Bits()) {
		return false
	}
	var stack [probeWords * stackWordsP]big.Word
	pr := newProbe(n, stack[:])
	return pr.base2() && pr.drawnBases() && pr.lucas()
}

// trialBound is the bound below which Prime divides candidates by every
// odd prime. It must stay at most 2^15, the least candidate, so that no
// candidate is a trial divisor itself. Timed over 2 000 256-bit
// candidates (medians of six runs on a 2-vCPU host), the pre-tests cost
// about the same at 2048 and 4096 and about 7 % more at 1024 and at 8192:
// below, more candidates reach the base-2 round; above, every survivor
// pays more divisions than the exponentiations they save.
const trialBound = 4096

// trialGroup is a run of odd primes whose product fits a machine word: one
// remainder of the candidate by the product, a word division per limb,
// serves every prime of the run.
type trialGroup struct {
	prod   uint
	primes []uint
}

var trialGroups = groupPrimes(trialBound)

// groupPrimes lists the odd primes below bound in ascending order, packed
// greedily into trialGroups, so a candidate meets the likeliest divisors
// first.
func groupPrimes(bound uint) []trialGroup {
	composite := make([]bool, bound)
	var groups []trialGroup
	g := trialGroup{prod: 1}
	for p := uint(3); p < bound; p += 2 {
		if composite[p] {
			continue
		}
		for m := p * p; m < bound; m += 2 * p {
			composite[m] = true
		}
		hi, prod := bits.Mul(g.prod, p)
		if hi != 0 {
			groups = append(groups, g)
			g, prod = trialGroup{}, p
		}
		g.prod = prod
		g.primes = append(g.primes, p)
	}
	return append(groups, g)
}

// hasSmallFactor reports whether an odd prime below trialBound divides the
// number whose little-endian limbs are x. It allocates nothing.
func hasSmallFactor(x []big.Word) bool {
	for _, g := range trialGroups {
		r := modWord(x, g.prod)
		for _, p := range g.primes {
			if r%p == 0 {
				return true
			}
		}
	}
	return false
}

// modWord returns x mod d for the number whose little-endian limbs are x
// and a non-zero d: Horner's rule from the top limb, where the remainder
// stays below d, so every step is one two-word-by-one-word division.
func modWord(x []big.Word, d uint) uint {
	var r uint
	for i := len(x) - 1; i >= 0; i-- {
		_, r = bits.Div(r, uint(x[i]), d)
	}
	return r
}

// probeWords is the working set of a probe in words per limb of n: five
// values for the Miller–Rabin rounds beside the exponentiation's scratch
// (18 values and Mul's k+1 words), rounded up to whole limbs. The Lucas
// test needs less.
const probeWords = 5 + 18 + 2

// probe holds one odd n ≥ trialBound on its Montgomery context, with the
// working set of the tests isPrime runs. Every value is k limbs.
type probe struct {
	n  *big.Int
	mc *mont.Ctx
	k  int
	// r and q write n − 1 = q·2^r with q odd; nm3 is n − 3, the bound of
	// the drawn bases, and base the base of the current round.
	r            int
	q, nm3, base []big.Word
	// minus1 (n − 1) and y, the round's power, are in Montgomery form.
	minus1, y []big.Word
	scratch   []big.Word // ExpScratch() words
}

// newProbe builds n's context and carves the working set from arena, or
// from the heap when arena is shorter than probeWords·k words.
func newProbe(n *big.Int, arena []big.Word) probe {
	mc := mont.New(n)
	k := mc.K()
	if len(arena) < probeWords*k {
		arena = make([]big.Word, probeWords*k)
	}
	next := func(words int) []big.Word {
		v := arena[:words:words]
		arena = arena[words:]
		return v
	}
	pr := probe{n: n, mc: mc, k: k,
		q: next(k), minus1: next(k), base: next(k), y: next(k), nm3: next(k),
		scratch: next(mc.ExpScratch())}
	// n is odd: n − 1 is n with the low bit cleared.
	copy(pr.q, mc.Modulus())
	pr.q[0] &^= 1
	copy(pr.nm3, pr.q)
	sub2(pr.nm3)
	pr.r = shiftOutZeros(pr.q)
	setSmall(pr.minus1, 0)
	mc.SubMod(pr.minus1, pr.minus1, mc.One()) // 0 − 1
	return pr
}

// base2 reports whether n is a strong probable prime to base 2. It rejects
// every composite a base-2 Fermat test rejects, and more.
func (pr *probe) base2() bool {
	setSmall(pr.base, 2)
	return pr.strong(pr.base)
}

// drawnBases reports whether n is a strong probable prime to each of the
// twenty bases math/big's Miller–Rabin rounds draw for it (baseDraw).
func (pr *probe) drawnBases() bool {
	d := pr.baseDraw()
	for round := 0; round < 20; round++ {
		d.next(pr.base)
		if !pr.strong(pr.base) {
			return false
		}
	}
	return true
}

// baseDraw replays nat.probablyPrimeMillerRabin's bases for one n: a
// math/rand source seeded with n's low word, then per base a value uniform
// below n − 3 by nat.random, plus 2. nat.random fills n − 3's limbs from
// the bottom, one Uint32 per 32-bit limb and two per 64-bit limb (low half
// first), masks the top limb to n − 3's length and draws again until the
// value is below n − 3.
type baseDraw struct {
	rnd  *rand.Rand
	lim  []big.Word // n − 3 without leading zero limbs
	mask big.Word   // n − 3's top limb's bits
}

func (pr *probe) baseDraw() baseDraw {
	lim := pr.nm3
	for len(lim) > 1 && lim[len(lim)-1] == 0 {
		lim = lim[:len(lim)-1]
	}
	mask := ^big.Word(0) >> uint(bits.LeadingZeros(uint(lim[len(lim)-1])))
	return baseDraw{rnd: rand.New(rand.NewSource(int64(pr.n.Bits()[0]))), lim: lim, mask: mask}
}

// next sets the k limbs b to the next base.
func (d *baseDraw) next(b []big.Word) {
	for i := range b {
		b[i] = 0
	}
	top := len(d.lim) - 1
	for {
		for i := range d.lim {
			if bits.UintSize == 32 {
				b[i] = big.Word(d.rnd.Uint32())
			} else {
				lo := uint64(d.rnd.Uint32())
				b[i] = big.Word(lo | uint64(d.rnd.Uint32())<<32)
			}
		}
		b[top] &= d.mask
		if mont.Less(b[:top+1], d.lim) {
			break
		}
	}
	add2(b)
}

// strong reports whether n is a strong probable prime to the base a (a
// plain value in [2, n−1)): a^q ≡ ±1, or a^(q·2^j) ≡ −1 for some j < r.
func (pr *probe) strong(a []big.Word) bool {
	mc, y := pr.mc, pr.y
	mc.ToMont(y, a, pr.scratch)
	mc.Exp(y, y, pr.q, pr.scratch)
	one := mc.One()
	if mont.Equal(y, one) || mont.Equal(y, pr.minus1) {
		return true
	}
	sq, t := pr.scratch[:pr.k], pr.scratch[pr.k:]
	for j := 1; j < pr.r; j++ {
		mc.Mul(sq, y, y, t)
		copy(y, sq)
		if mont.Equal(y, pr.minus1) {
			return true
		}
		if mont.Equal(y, one) {
			return false
		}
	}
	return false
}

// lucas reports whether n passes math/big's extra strong Lucas test
// (probablyPrimeLucas: Baillie's method C, then Grantham's conditions),
// with the sequence V_k(P, 1) computed in the Montgomery domain.
func (pr *probe) lucas() bool {
	x := pr.n.Bits()
	// Method C: the least P ≥ 3 with Jacobi(P² − 4, n) = −1.
	p := uint(3)
	for ; ; p++ {
		if p > 10000 {
			// math/big panics here too: believed unreachable.
			panic("nsl: cannot find (D/n) = -1 for " + pr.n.String())
		}
		j := jacobi(p*p-4, x)
		if j == -1 {
			break
		}
		if j == 0 {
			// P² − 4 = (P−2)(P+2), and no smaller P found a common
			// factor, so P+2 divides n: n is prime only if it is P+2.
			return len(x) == 1 && uint(x[0]) == p+2
		}
		if p == 40 {
			// A square never finds −1; a non-square almost always has
			// by now. Rare, so the square root may allocate.
			s := new(big.Int).Sqrt(pr.n)
			if s.Mul(s, s).Cmp(pr.n) == 0 {
				return false
			}
		}
	}

	// n + 1 = s·2^r, and V_s, V_{s+1} by doubling along s's bits:
	// V_2k = V_k² − 2, V_2k+1 = V_k·V_k+1 − P.
	mc, k := pr.mc, pr.k
	v := pr.scratch
	vk, vk1, pm, two, t := v[:k], v[k:2*k], v[2*k:3*k], v[3*k:4*k], v[4*k:5*k]
	np1, mt := v[5*k:6*k+1], v[6*k+1:]
	carry := uint(1)
	for i := range x {
		s, c := bits.Add(uint(x[i]), 0, carry)
		np1[i], carry = big.Word(s), c
	}
	np1[k] = big.Word(carry)
	r := 0
	for np1[r/bits.UintSize]>>(r%bits.UintSize)&1 == 0 {
		r++
	}
	setSmall(t, 2)
	mc.ToMont(two, t, mt)
	setSmall(t, p)
	mc.ToMont(pm, t, mt)
	copy(vk, two)
	copy(vk1, pm)
	for i := bitLen(np1) - 1; i >= r; i-- {
		mc.Mul(t, vk, vk1, mt)
		if np1[i/bits.UintSize]>>(i%bits.UintSize)&1 != 0 {
			mc.SubMod(vk, t, pm)
			mc.Mul(t, vk1, vk1, mt)
			mc.SubMod(vk1, t, two)
		} else {
			mc.SubMod(vk1, t, pm)
			mc.Mul(t, vk, vk, mt)
			mc.SubMod(vk, t, two)
		}
	}

	// V_s ≡ ±2 and U_s ≡ 0, the latter as P·V_s ≡ 2·V_s+1
	// (Crandall–Pomerance 3.13).
	minus2 := np1[:k] // n + 1 is no longer needed
	setSmall(minus2, 0)
	mc.SubMod(minus2, minus2, two)
	if mont.Equal(vk, two) || mont.Equal(vk, minus2) {
		mc.Mul(t, pm, vk, mt)
		mc.Mul(pm, two, vk1, mt) // P is no longer needed
		if mont.Equal(t, pm) {
			return true
		}
	}
	// Or V_{s·2^t} ≡ 0 for some t < r − 1; V = 2 is a fixed point of the
	// doubling, after which 0 never comes.
	for i := 0; i < r-1; i++ {
		if isZero(vk) {
			return true
		}
		if mont.Equal(vk, two) {
			return false
		}
		mc.Mul(t, vk, vk, mt)
		mc.SubMod(vk, t, two)
	}
	return false
}

// jacobi returns the Jacobi symbol (a/n) for the odd n whose little-endian
// limbs are x.
func jacobi(a uint, x []big.Word) int {
	n0 := uint(x[0])
	if len(x) == 1 {
		return jacobiWord(a%n0, n0)
	}
	// n exceeds a word, so a < n, and a is not zero: one step of the
	// binary algorithm by hand brings both below a word.
	j := 1
	tz := bits.TrailingZeros(a)
	a >>= uint(tz)
	if tz&1 == 1 && (n0&7 == 3 || n0&7 == 5) {
		j = -j
	}
	if a&3 == 3 && n0&3 == 3 {
		j = -j
	}
	return j * jacobiWord(modWord(x, a), a)
}

// jacobiWord returns the Jacobi symbol (a/n) for an odd n and a < n.
func jacobiWord(a, n uint) int {
	j := 1
	for a != 0 {
		tz := bits.TrailingZeros(a)
		a >>= uint(tz)
		if tz&1 == 1 && (n&7 == 3 || n&7 == 5) {
			j = -j
		}
		if a&3 == 3 && n&3 == 3 {
			j = -j
		}
		a, n = n%a, a
	}
	if n == 1 {
		return j
	}
	return 0
}

// shiftOutZeros shifts the non-zero x right by its trailing zero bits and
// returns their count.
func shiftOutZeros(x []big.Word) int {
	words := 0
	for x[words] == 0 {
		words++
	}
	copy(x, x[words:])
	for i := len(x) - words; i < len(x); i++ {
		x[i] = 0
	}
	s := uint(bits.TrailingZeros(uint(x[0])))
	if s > 0 {
		for i := 0; i < len(x); i++ {
			hi := big.Word(0)
			if i+1 < len(x) {
				hi = x[i+1] << (bits.UintSize - s)
			}
			x[i] = x[i]>>s | hi
		}
	}
	return words*bits.UintSize + int(s)
}

// add2 and sub2 add and subtract 2 in place, carrying across limbs.
func add2(x []big.Word) {
	c := uint(2)
	for i := 0; c != 0 && i < len(x); i++ {
		var s uint
		s, c = bits.Add(uint(x[i]), c, 0)
		x[i] = big.Word(s)
	}
}

func sub2(x []big.Word) {
	b := uint(2)
	for i := 0; b != 0 && i < len(x); i++ {
		var d uint
		d, b = bits.Sub(uint(x[i]), b, 0)
		x[i] = big.Word(d)
	}
}

// setSmall sets the limbs x to the value v.
func setSmall(x []big.Word, v uint) {
	for i := range x {
		x[i] = 0
	}
	x[0] = big.Word(v)
}

func isZero(x []big.Word) bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// bitLen is the bit length of the number whose little-endian limbs are x.
func bitLen(x []big.Word) int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != 0 {
			return i*bits.UintSize + bits.Len(uint(x[i]))
		}
	}
	return 0
}
