package thresh

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"

	"innercircle/internal/crypto/nsl"
	"innercircle/internal/crypto/shamir"
)

// RSADealer deals Shoup-style threshold RSA keys. The dealer retains the
// secret modulus totient of every key it deals so it can later run the
// proactive share refresh and reshare (see Dealer).
type RSADealer struct {
	// Bits is the modulus size; the paper uses 1024 (ad hoc) and 512
	// (sensor) bit keys.
	Bits int
	// Rand is the entropy source every prime and share is drawn from. It
	// is required: with a nil Rand, Deal, DKG, Refresh and Reshare fail.
	// A seeded Rand deals the same keys in every process.
	Rand io.Reader

	// secrets maps dealt keys to λ(N), needed for Refresh.
	secrets map[*rsaGroupKey]*big.Int
}

// Deal implements Dealer. It generates a fresh RSA modulus, shares the
// private exponent with a degree-k polynomial, and returns the group key
// and n signers.
func (d *RSADealer) Deal(k, n int) (GroupKey, []Signer, error) {
	if k < 0 || n < 1 || k+1 > n {
		return nil, nil, fmt.Errorf("thresh: invalid threshold k=%d n=%d", k, n)
	}
	N, e, lambda, err := d.keyMaterial(n)
	if err != nil {
		return nil, nil, err
	}
	dExp := new(big.Int).ModInverse(e, lambda)
	if dExp == nil {
		return nil, nil, fmt.Errorf("thresh: e not invertible mod lambda")
	}
	shares, err := shamir.Split(dExp, k, n, lambda, d.Rand)
	if err != nil {
		return nil, nil, fmt.Errorf("thresh: share private exponent: %w", err)
	}
	gk, err := newRSAGroupKey(k, n, N, e)
	if err != nil {
		return nil, nil, err
	}
	if d.secrets == nil {
		d.secrets = make(map[*rsaGroupKey]*big.Int)
	}
	d.secrets[gk] = lambda
	signers := make([]Signer, n)
	for i, s := range shares {
		signers[i] = newRSASigner(gk, s.X, s.Y)
	}
	return gk, signers, nil
}

// keyMaterial generates a modulus N, public exponent e, and secret λ(N)
// suitable for an n-player key. Deal calls it as the trusted dealer; DKG
// calls it as the ideal functionality standing in for distributed modulus
// generation (see dkg.go).
func (d *RSADealer) keyMaterial(n int) (N, e, lambda *big.Int, err error) {
	bits := d.Bits
	if bits == 0 {
		bits = 1024
	}
	if bits < 128 {
		return nil, nil, nil, fmt.Errorf("thresh: modulus too small (%d bits)", bits)
	}
	one := big.NewInt(1)
	var p, q *big.Int
	for p == nil || p.Cmp(q) == 0 {
		if p, err = nsl.Prime(d.Rand, bits/2); err == nil {
			q, err = nsl.Prime(d.Rand, bits-bits/2)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("thresh: generate prime: %w", err)
		}
	}
	N = new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda = new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, gcd)
	// Public exponent e must be a prime larger than n (so gcd(e, 4Δ²) = 1
	// with Δ = n!) and coprime to λ(N). e stays far below 2^64, where the
	// primality test is exact.
	e = big.NewInt(65537)
	for int(e.Int64()) <= n || new(big.Int).GCD(nil, nil, e, lambda).Cmp(one) != 0 {
		e.Add(e, big.NewInt(2))
		for !nsl.IsProbablePrime(e) {
			e.Add(e, big.NewInt(2))
		}
	}
	return N, e, lambda, nil
}

func factorial(n int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

// hashToModulus maps msg to an element of Z_N* via SHA-256 expansion.
func hashToModulus(msg []byte, modulus *big.Int) *big.Int {
	need := (modulus.BitLen() + 7) / 8
	var out []byte
	var ctr uint8
	for len(out) < need {
		h := sha256.New()
		_, _ = h.Write([]byte{ctr})
		_, _ = h.Write(msg)
		out = h.Sum(out)
		ctr++
	}
	x := new(big.Int).SetBytes(out[:need])
	x.Mod(x, modulus)
	if x.Sign() == 0 {
		x.SetInt64(1)
	}
	return x
}

type rsaGroupKey struct {
	k, n    int
	modulus *big.Int
	e       *big.Int
	delta   *big.Int // n!
	epoch   uint64   // proactive-refresh epoch, diagnostics only

	// Constants of Shoup's combination step that depend on (k, n) but not
	// on the message, set by setShape at deal time and again by Reshare.
	// Combine and Verify only read them, so concurrent calls share them.
	fourDelta *big.Int // 4Δ, the exponent of x̃ = H(m)^(4Δ) in partial proofs
	a, b      *big.Int // a·4Δ² + b·e = 1; exactly one of them is negative

	// Shoup's verification keys: the base v = H(N)² mod N, hashed from the
	// modulus, and vk[i] = v^(s_i) for the share index i holds this epoch,
	// published by newRSASigner; nil where no share was dealt.
	v  *big.Int
	vk []*big.Int // index 1..n
}

var _ GroupKey = (*rsaGroupKey)(nil)

func (g *rsaGroupKey) Threshold() int { return g.k }
func (g *rsaGroupKey) Players() int   { return g.n }
func (g *rsaGroupKey) SigBytes() int  { return (g.modulus.BitLen() + 7) / 8 }

// Epoch implements GroupKey.
func (g *rsaGroupKey) Epoch() uint64 { return g.epoch }

// newRSAGroupKey is the group key of modulus N and public exponent e,
// shared k-of-n; Deal and DKG both build theirs here.
func newRSAGroupKey(k, n int, modulus, e *big.Int) (*rsaGroupKey, error) {
	g := &rsaGroupKey{modulus: modulus, e: e, v: proofBase(modulus)}
	if err := g.setShape(k, n); err != nil {
		return nil, err
	}
	return g, nil
}

// setShape points the key at (k, n): Δ = n!, 4Δ, the extended-Euclid pair
// a·4Δ² + b·e = 1, and an empty verification-key slot per share index.
// Dealt keys always satisfy gcd(4Δ², e) = 1 because e is a prime > n. The
// modulus — and with it the proof base v and every previously issued
// signature — is untouched. All new state is computed before any field is
// assigned, so a failure leaves the key as it was.
func (g *rsaGroupKey) setShape(k, n int) error {
	delta := factorial(n)
	fourDeltaSq := new(big.Int).Mul(delta, delta)
	fourDeltaSq.Lsh(fourDeltaSq, 2)
	a, b := new(big.Int), new(big.Int)
	if new(big.Int).GCD(a, b, fourDeltaSq, g.e).Cmp(big.NewInt(1)) != 0 {
		return fmt.Errorf("thresh: gcd(4Δ², e) != 1 (e too small for n=%d)", n)
	}
	g.k, g.n, g.delta = k, n, delta
	g.fourDelta = new(big.Int).Lsh(delta, 2)
	g.a, g.b = a, b
	g.vk = make([]*big.Int, n+1)
	return nil
}

type rsaSigner struct {
	gk    *rsaGroupKey
	index int
	share *big.Int
	exp   *big.Int // 2Δ·s_i, the fixed PartialSign exponent
	vk    *big.Int // v^(s_i), this share's verification key
}

// newRSASigner is the one constructor of a share holder, which Deal, DKG,
// Refresh and Reshare share. It precomputes the exponent 2Δ·s_i, which
// never changes between messages, and publishes the share's verification
// key v^(s_i) on gk.
func newRSASigner(gk *rsaGroupKey, index int, share *big.Int) *rsaSigner {
	exp := new(big.Int).Lsh(gk.delta, 1) // 2Δ
	exp.Mul(exp, share)
	vk := new(big.Int).Exp(gk.v, share, gk.modulus)
	gk.vk[index] = vk
	return &rsaSigner{gk: gk, index: index, share: share, exp: exp, vk: vk}
}

func (s *rsaSigner) Index() int { return s.index }

// PartialSign computes x_i = H(m)^(2Δ·s_i) mod N and its proof (see
// prove). The ~modulus-sized exponents keep this in math/big's Exp (whose
// assembly inner loops win at that size).
func (s *rsaSigner) PartialSign(msg []byte) (Partial, error) {
	x := hashToModulus(msg, s.gk.modulus)
	xi := new(big.Int).Exp(x, s.exp, s.gk.modulus)
	return Partial{Index: s.index, Data: xi.Bytes(), Proof: s.prove(msg, x, xi)}, nil
}

// lagrangeNumerator computes λ^S_{0,i} = Δ · Π_{j∈S, j≠i} j / (j − i),
// which is an integer because Δ = n! absorbs every denominator.
func (g *rsaGroupKey) lagrangeNumerator(set []int, i int) *big.Int {
	num := new(big.Int).Set(g.delta)
	den := big.NewInt(1)
	for _, j := range set {
		if j == i {
			continue
		}
		num.Mul(num, big.NewInt(int64(j)))
		den.Mul(den, big.NewInt(int64(j-i)))
	}
	return num.Div(num, den) // exact by construction
}

// Combine implements Shoup's combination: w = Π x_i^(2λ_{0,i}) satisfies
// w^e = H(m)^(4Δ²); with a·4Δ² + b·e = 1 the signature is w^a · H(m)^b.
// A partial not invertible modulo N, or a signature that fails
// sig^e = H(m), means a corrupt partial in the co-signer set.
func (g *rsaGroupKey) Combine(msg []byte, partials []Partial) (Signature, error) {
	use, err := coSigners(partials, g.k, g.n)
	if err != nil {
		return Signature{}, err
	}
	set := make([]int, len(use))
	for i, p := range use {
		set[i] = p.Index
	}
	N := g.modulus
	w := big.NewInt(1)
	for _, p := range use {
		lam := g.lagrangeNumerator(set, p.Index)
		term, err := powSigned(new(big.Int).SetBytes(p.Data), lam.Lsh(lam, 1), N)
		if err != nil {
			return Signature{}, errCorruptSet(use)
		}
		w.Mul(w, term).Mod(w, N)
	}
	x := hashToModulus(msg, N)
	sig, err := powSigned(w, g.a, N)
	if err != nil {
		return Signature{}, errCorruptSet(use)
	}
	xb, err := powSigned(x, g.b, N)
	if err != nil {
		return Signature{}, errCorruptSet(use)
	}
	sig.Mul(sig, xb).Mod(sig, N)
	if new(big.Int).Exp(sig, g.e, N).Cmp(x) != 0 {
		return Signature{}, errCorruptSet(use)
	}
	return Signature{Data: sig.Bytes()}, nil
}

// powSigned computes base^exp mod m for any base and a possibly negative
// exp, through base's inverse then, and reports an error when base is not
// invertible. It never writes to its arguments: a key's a and b are read
// by every goroutine combining under it.
func powSigned(base, exp, m *big.Int) (*big.Int, error) {
	z := new(big.Int).Exp(base, exp, m)
	if z == nil {
		return nil, fmt.Errorf("thresh: base not invertible modulo N")
	}
	return z, nil
}

// Verify checks s < N and s^e == H(m) mod N — ordinary RSA verification,
// exactly what a remote recipient of an agreed message performs. H(m) is
// never 0, so empty Data fails.
func (g *rsaGroupKey) Verify(msg []byte, sig Signature) error {
	s := new(big.Int).SetBytes(sig.Data)
	if s.Cmp(g.modulus) >= 0 || s.Exp(s, g.e, g.modulus).Cmp(hashToModulus(msg, g.modulus)) != 0 {
		return ErrBadSignature
	}
	return nil
}
