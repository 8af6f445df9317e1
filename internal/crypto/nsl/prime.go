package nsl

import (
	"errors"
	"io"
	"math/big"
	"math/bits"

	"innercircle/internal/crypto/mont"
)

// Prime returns a prime of exactly bits bits whose candidates are drawn
// verbatim from r. It is the program's one prime search: unlike
// crypto/rand.Prime, which reads one extra byte at random
// (randutil.MaybeReadByte), it consumes the stream deterministically, and
// ProbablyPrime derives its Miller-Rabin bases from the candidate itself,
// so the result is reproducible for a seeded r.
//
// ProbablyPrime(20) decides every candidate that reaches it. Two cheaper
// tests run first and only ever turn away a candidate ProbablyPrime would
// turn away too (maybePrime), so they change the cost of the search, never
// which prime it returns.
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
		if maybePrime(p) && p.ProbablyPrime(20) {
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

// maybePrime reports whether the odd n, at least 2^15, passes trial
// division below trialBound and a base-2 Fermat test. Both turn away
// composites only, and only composites ProbablyPrime(20) turns away too:
// n is above every trial divisor, so a divisor is a proper factor; and
// ProbablyPrime runs a Miller–Rabin round to base 2 unless an earlier test
// has already rejected n, and that round rejects every n with
// 2^(n−1) ≢ 1 (mod n). Trial division goes first: for a few word
// divisions each it turns away most candidates, every one ProbablyPrime's
// own division by the primes up to 53 would among them, so the Fermat
// test runs only where ProbablyPrime would have exponentiated.
func maybePrime(n *big.Int) bool {
	return !hasSmallFactor(n.Bits()) && fermat2(n)
}

// trialBound is the bound below which Prime divides candidates by every
// odd prime. It must stay at most 2^15, the least candidate, so that no
// candidate is a trial divisor itself. Timed over 2 000 256-bit
// candidates (medians of six runs on a 2-vCPU host), the pre-tests cost
// about the same at 2048 and 4096 and about 7 % more at 1024 and at 8192:
// below, more candidates reach the Fermat test; above, every survivor
// pays more divisions than the Fermat tests they save.
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
		// Horner's rule from the top limb: r stays below g.prod, so every
		// step is one two-word-by-one-word division.
		var r uint
		for i := len(x) - 1; i >= 0; i-- {
			_, r = bits.Div(r, uint(x[i]), g.prod)
		}
		for _, p := range g.primes {
			if r%p == 0 {
				return true
			}
		}
	}
	return false
}

// fermat2 reports whether 2^(n−1) ≡ 1 (mod n) for an odd n above 2, on n's
// Montgomery context. The working set stays on the stack for n of up to
// stackWordsP words, the widest CRT prime Sign exponentiates under.
func fermat2(n *big.Int) bool {
	mc := mont.New(n)
	k := mc.K()
	var stack [21*stackWordsP + 1]big.Word // 2k + ExpScratch
	arena := stack[:]
	if need := 2*k + mc.ExpScratch(); need > len(arena) {
		arena = make([]big.Word, need)
	}
	x, e, scratch := arena[:k], arena[k:2*k], arena[2*k:]
	for i := range e {
		e[i] = 0
	}
	e[0] = 2
	mc.ToMont(x, e, scratch)
	// e = n − 1: n is odd, so clearing the low bit subtracts one.
	copy(e, mc.Modulus())
	e[0] &^= 1
	mc.Exp(x, x, e, scratch)
	return mont.Equal(x, mc.One())
}
