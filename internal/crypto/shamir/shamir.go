// Package shamir implements Shamir secret sharing over the integers modulo
// a caller-supplied modulus. It is the substrate beneath the threshold
// signature scheme of §2 of the paper: the dealer splits each
// dependability-level signing key K_L into (L+1)-threshold shares, so L+1
// nodes must cooperate to sign.
package shamir

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Share is one point (X, Y) on the dealer's secret polynomial. X is the
// share index, always >= 1.
type Share struct {
	X int
	Y *big.Int
}

var (
	// ErrThreshold is returned when parameters are inconsistent (need
	// 1 <= k+1 <= n).
	ErrThreshold = errors.New("shamir: invalid threshold parameters")
	// ErrTooFewShares is returned by Combine when fewer than k+1 distinct
	// shares are supplied.
	ErrTooFewShares = errors.New("shamir: not enough distinct shares")
)

// Split shares secret among n parties such that any k+1 of them can
// reconstruct it and any k learn nothing (information-theoretically, when
// mod is prime; computationally adequate for the composite moduli used by
// threshold RSA, where the polynomial coefficients are drawn uniformly).
// Randomness comes from rand.
func Split(secret *big.Int, k, n int, mod *big.Int, rand io.Reader) ([]Share, error) {
	if k < 0 || n < 1 || k+1 > n {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrThreshold, k, n)
	}
	if mod.Sign() <= 0 {
		return nil, errors.New("shamir: modulus must be positive")
	}
	// coeffs[0] = secret; coeffs[1..k] random.
	coeffs := make([]*big.Int, k+1)
	coeffs[0] = new(big.Int).Mod(secret, mod)
	for i := 1; i <= k; i++ {
		c, err := RandInt(rand, mod)
		if err != nil {
			return nil, fmt.Errorf("shamir: draw coefficient: %w", err)
		}
		coeffs[i] = c
	}
	shares := make([]Share, n)
	for x := 1; x <= n; x++ {
		shares[x-1] = Share{X: x, Y: eval(coeffs, x, mod)}
	}
	return shares, nil
}

// eval computes the polynomial at x via Horner's rule, mod mod.
func eval(coeffs []*big.Int, x int, mod *big.Int) *big.Int {
	bx := big.NewInt(int64(x))
	acc := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, bx)
		acc.Add(acc, coeffs[i])
		acc.Mod(acc, mod)
	}
	return acc
}

// Combine reconstructs the secret from at least k+1 distinct shares using
// Lagrange interpolation at zero. The modulus must be prime for Combine
// (interpolation divides); threshold RSA avoids this requirement with the
// Δ = n! integer-coefficient trick and does not call Combine.
func Combine(shares []Share, k int, mod *big.Int) (*big.Int, error) {
	distinct := dedupe(shares)
	if len(distinct) < k+1 {
		return nil, fmt.Errorf("%w: have %d distinct, need %d", ErrTooFewShares, len(distinct), k+1)
	}
	use := distinct[:k+1]
	secret := new(big.Int)
	for i, si := range use {
		num := big.NewInt(1)
		den := big.NewInt(1)
		for j, sj := range use {
			if i == j {
				continue
			}
			num.Mul(num, big.NewInt(int64(-sj.X)))
			num.Mod(num, mod)
			den.Mul(den, big.NewInt(int64(si.X-sj.X)))
			den.Mod(den, mod)
		}
		inv := new(big.Int).ModInverse(den, mod)
		if inv == nil {
			return nil, fmt.Errorf("shamir: modulus not invertible at share pair (is it prime?)")
		}
		term := new(big.Int).Mul(si.Y, num)
		term.Mul(term, inv)
		secret.Add(secret, term)
		secret.Mod(secret, mod)
	}
	return secret, nil
}

// dedupe returns the shares with distinct X, keeping first occurrences.
func dedupe(shares []Share) []Share {
	seen := make(map[int]bool, len(shares))
	out := make([]Share, 0, len(shares))
	for _, s := range shares {
		if s.Y == nil || seen[s.X] {
			continue
		}
		seen[s.X] = true
		out = append(out, s)
	}
	return out
}

// RandInt draws a uniform integer in [0, mod) from rand by masked
// rejection. It is the program's one uniform sampler: a nil rand is an
// error, never a default source.
func RandInt(rand io.Reader, mod *big.Int) (*big.Int, error) {
	if rand == nil {
		return nil, errors.New("shamir: nil random source")
	}
	bitLen := mod.BitLen()
	bytes := (bitLen + 7) / 8
	buf := make([]byte, bytes)
	for {
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, err
		}
		// Mask excess high bits to reduce rejection rate.
		if excess := bytes*8 - bitLen; excess > 0 {
			buf[0] &= 0xFF >> excess
		}
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(mod) < 0 {
			return v, nil
		}
	}
}
