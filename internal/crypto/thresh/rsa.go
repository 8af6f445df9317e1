package thresh

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sync"

	"innercircle/internal/crypto/mont"
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
	gk := &rsaGroupKey{k: k, n: n, modulus: N, e: e, delta: factorial(n)}
	if err := gk.precompute(); err != nil {
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
	// with Δ = n!) and coprime to λ(N).
	e = big.NewInt(65537)
	for int(e.Int64()) <= n || new(big.Int).GCD(nil, nil, e, lambda).Cmp(one) != 0 {
		e.Add(e, big.NewInt(2))
		for !e.ProbablyPrime(32) {
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
	return hashToModulusInto(new(big.Int), msg, modulus)
}

// hashToModulusInto is hashToModulus writing into dst (scratch reuse).
func hashToModulusInto(dst *big.Int, msg []byte, modulus *big.Int) *big.Int {
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
	dst.SetBytes(out[:need])
	dst.Mod(dst, modulus)
	if dst.Sign() == 0 {
		dst.SetInt64(1)
	}
	return dst
}

type rsaGroupKey struct {
	k, n    int
	modulus *big.Int
	e       *big.Int
	delta   *big.Int // n!
	epoch   uint64   // proactive-refresh epoch, diagnostics only

	// Key-dependent, message-independent context, computed at deal time
	// and rebuilt by reshare when (k, n) changes (Shoup's observation:
	// everything but H(m)^exp can be reused between messages).
	// aAbs/bAbs are stored as magnitudes plus sign flags so concurrent
	// Combine calls never mutate the shared big.Ints.
	fourDelta   *big.Int // 4Δ, the exponent of x̃ = H(m)^(4Δ) in partial proofs
	fourDeltaSq *big.Int // 4Δ²
	aAbs, bAbs  *big.Int // |a|, |b| where a·4Δ² + b·e = 1
	aNeg, bNeg  bool
	mont        montCtx // fixed-modulus Montgomery arithmetic

	// Shoup's verification keys: the base v = H(N)² mod N, hashed from the
	// modulus, and vk[i] = v^(s_i) for the share index i holds this epoch,
	// published by newRSASigner; nil where no share was dealt.
	v  *big.Int
	vk []*big.Int // index 1..n

	// lag memoizes the 2λ^S_{0,i} Lagrange-coefficient vectors per
	// co-signer set: vote rounds reuse the same k+1 neighbours constantly.
	mu  sync.Mutex
	lag map[string]*lagEntry
}

var _ GroupKey = (*rsaGroupKey)(nil)

func (g *rsaGroupKey) Threshold() int { return g.k }
func (g *rsaGroupKey) Players() int   { return g.n }
func (g *rsaGroupKey) SigBytes() int  { return (g.modulus.BitLen() + 7) / 8 }

// Epoch implements GroupKey.
func (g *rsaGroupKey) Epoch() uint64 { return g.epoch }

// precompute derives the per-key constants of Shoup's combination step:
// 4Δ², the extended-Euclid pair a·4Δ² + b·e = 1, and the Montgomery
// context for the fixed modulus. Dealt keys always satisfy
// gcd(4Δ², e) = 1 because e is a prime > n.
func (g *rsaGroupKey) precompute() error {
	g.fourDelta = new(big.Int).Lsh(g.delta, 2)
	g.fourDeltaSq = new(big.Int).Mul(g.delta, g.delta)
	g.fourDeltaSq.Lsh(g.fourDeltaSq, 2)
	a := new(big.Int)
	b := new(big.Int)
	gcd := new(big.Int).GCD(a, b, g.fourDeltaSq, g.e)
	if gcd.Cmp(big.NewInt(1)) != 0 {
		return fmt.Errorf("thresh: gcd(4Δ², e) != 1 (e too small for n)")
	}
	g.aNeg = a.Sign() < 0
	g.bNeg = b.Sign() < 0
	g.aAbs = a.Abs(a)
	g.bAbs = b.Abs(b)
	g.mont = newMontCtx(g.modulus)
	g.v = proofBase(g.modulus)
	g.vk = make([]*big.Int, g.n+1)
	return nil
}

// reshare repoints the key at a new (k, n): Δ becomes n'!, the dependent
// Shoup constants (4Δ, 4Δ², the extended-Euclid pair) are rebuilt, the
// per-set Lagrange memo and the verification keys are dropped, and the
// epoch is bumped so verification memos roll over. The modulus — and with
// it the Montgomery context, the proof base v and every previously issued
// signature — is untouched. All new state is computed before any field is
// assigned, so a failed rebuild leaves the key as it was.
func (g *rsaGroupKey) reshare(newK, newN int) error {
	delta := factorial(newN)
	fds := new(big.Int).Mul(delta, delta)
	fds.Lsh(fds, 2)
	a := new(big.Int)
	b := new(big.Int)
	gcd := new(big.Int).GCD(a, b, fds, g.e)
	if gcd.Cmp(big.NewInt(1)) != 0 {
		return fmt.Errorf("thresh: gcd(4Δ², e) != 1 (e too small for n=%d)", newN)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.k, g.n, g.delta = newK, newN, delta
	g.fourDelta = new(big.Int).Lsh(delta, 2)
	g.fourDeltaSq = fds
	g.vk = make([]*big.Int, newN+1)
	g.aNeg, g.bNeg = a.Sign() < 0, b.Sign() < 0
	g.aAbs, g.bAbs = a.Abs(a), b.Abs(b)
	g.lag = nil
	g.epoch++
	return nil
}

// lagEntry is the memoized coefficient vector for one co-signer set:
// |2λ^S_{0,i}| plus sign, aligned with the sorted index slice. Entries are
// immutable once published.
type lagEntry struct {
	idx []int
	abs []*big.Int
	neg []bool
}

// coeff returns |2λ^S_{0,i}| and its sign for share index i.
func (le *lagEntry) coeff(i int) (*big.Int, bool) {
	for j, v := range le.idx {
		if v == i {
			return le.abs[j], le.neg[j]
		}
	}
	panic("thresh: index not in lagrange entry")
}

// lagCacheCap bounds the per-key coefficient memo. A vote service sees a
// handful of co-signer sets; the cap only matters under adversarial churn,
// where the whole map is dropped and rebuilt on demand (deterministic and
// allocation-cheap at this size).
const lagCacheCap = 64

// lagrangeSet returns the memoized 2λ^S_{0,i} vector for the given
// co-signer set (order-insensitive).
func (g *rsaGroupKey) lagrangeSet(set []int) *lagEntry {
	sorted := make([]int, len(set))
	copy(sorted, set)
	for i := 1; i < len(sorted); i++ { // insertion sort; k+1 is tiny
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	key := make([]byte, 0, 4*len(sorted))
	for _, v := range sorted {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(v))
		key = append(key, b[:]...)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.lag[string(key)]; ok {
		return e
	}
	le := &lagEntry{idx: sorted}
	for _, i := range sorted {
		lam := g.lagrangeNumerator(sorted, i)
		lam.Lsh(lam, 1) // 2λ
		neg := lam.Sign() < 0
		le.abs = append(le.abs, lam.Abs(lam))
		le.neg = append(le.neg, neg)
	}
	if g.lag == nil || len(g.lag) >= lagCacheCap {
		g.lag = make(map[string]*lagEntry)
	}
	g.lag[string(key)] = le
	return le
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

// combineScratch pools the working set of Combine/Verify — big.Int
// temporaries plus the Montgomery limb arena — so the steady-state paths
// stop churning allocations.
type combineScratch struct {
	x, q, t big.Int
	xi      []big.Int
	posB    [][]big.Word
	negB    [][]big.Word
	posE    []*big.Int
	negE    []*big.Int
	mont    montScratch
}

var scratchPool = sync.Pool{New: func() any { return new(combineScratch) }}

// Combine implements Shoup's combination: w = Π x_i^(2λ_{0,i}) satisfies
// w^e = H(m)^(4Δ²); with a·4Δ² + b·e = 1 the signature is w^a · H(m)^b.
//
// The product is evaluated in the key's Montgomery context as a single
// fraction P/Q — numerator factors collect the positive signed exponents,
// denominator factors the negative ones, each side one interleaved
// square-and-multiply chain — so exactly one ModInverse runs per call
// (the seed code inverted once per negative exponent) and the Montgomery
// setup that math/big's Exp rebuilds per call is reused from deal time.
// The signature value is identical to the per-factor evaluation — only
// the operation count changes.
func (g *rsaGroupKey) Combine(msg []byte, partials []Partial) (Signature, error) {
	use, err := coSigners(partials, g.k, g.n)
	if err != nil {
		return Signature{}, err
	}
	set := make([]int, len(use))
	for i, p := range use {
		set[i] = p.Index
	}
	lag := g.lagrangeSet(set)

	sc := scratchPool.Get().(*combineScratch)
	defer scratchPool.Put(sc)
	mc := g.mont
	ms := &sc.mont
	ms.reset(mc.K())
	if cap(sc.xi) < len(use) {
		sc.xi = make([]big.Int, len(use))
	}
	sc.xi = sc.xi[:len(use)]

	x := hashToModulusInto(&sc.x, msg, g.modulus)
	xm := mc.toMont(ms, x)

	// Split the partials by Lagrange-coefficient sign: w = num/den.
	posB, posE := sc.posB[:0], sc.posE[:0]
	negB, negE := sc.negB[:0], sc.negE[:0]
	for i, p := range use {
		xi := sc.xi[i].SetBytes(p.Data)
		if xi.Cmp(g.modulus) >= 0 {
			xi.Mod(xi, g.modulus)
		}
		xim := mc.toMont(ms, xi)
		abs, neg := lag.coeff(p.Index)
		if neg {
			negB, negE = append(negB, xim), append(negE, abs)
		} else {
			posB, posE = append(posB, xim), append(posE, abs)
		}
	}
	sc.posB, sc.posE = posB[:0], posE[:0]
	sc.negB, sc.negE = negB[:0], negE[:0]

	num := ms.alloc(mc.K())
	den := ms.alloc(mc.K())
	mc.expChain(ms, num, posB, posE)
	mc.expChain(ms, den, negB, negE)

	// sig = num^a · den^(−a) · x^b. Exactly one of a, b is negative
	// (a·4Δ² + b·e = 1 with both terms positive), so after inverting the
	// negative-exponent operands — both at once via Montgomery's batch-
	// inversion trick, one ModInverse total — the signature is a single
	// two-base chain u^|a| · y^|b| with all-positive exponents.
	sigm := ms.alloc(mc.K())
	u := ms.alloc(mc.K())
	if !g.aNeg { // a > 0, b < 0: sig = (num/den)^a · (x⁻¹)^|b|
		dx := ms.alloc(mc.K())
		mc.Mul(dx, den, xm, ms.t)
		inv := sc.t.ModInverse(mc.fromMont(ms, &sc.q, dx), g.modulus)
		if inv == nil {
			return Signature{}, errCorruptSet(use)
		}
		im := mc.toMont(ms, inv) // (den·x)⁻¹
		dinv := ms.alloc(mc.K())
		mc.Mul(dinv, im, xm, ms.t) // den⁻¹
		xinv := ms.alloc(mc.K())
		mc.Mul(xinv, im, den, ms.t) // x⁻¹
		mc.Mul(u, num, dinv, ms.t)
		mc.expChain(ms, sigm, [][]big.Word{u, xinv}, []*big.Int{g.aAbs, g.bAbs})
	} else { // a < 0, b > 0: sig = (den/num)^|a| · x^b
		inv := sc.t.ModInverse(mc.fromMont(ms, &sc.q, num), g.modulus)
		if inv == nil {
			return Signature{}, errCorruptSet(use)
		}
		im := mc.toMont(ms, inv)
		mc.Mul(u, im, den, ms.t)
		mc.expChain(ms, sigm, [][]big.Word{u, xm}, []*big.Int{g.aAbs, g.bAbs})
	}
	// Verify in the Montgomery domain without rehashing: sig^e·R vs x·R.
	chk := ms.alloc(mc.K())
	mc.expChain(ms, chk, [][]big.Word{sigm}, []*big.Int{g.e})
	if !mont.Equal(chk, xm) {
		return Signature{}, errCorruptSet(use)
	}
	sig := mc.fromMont(ms, &sc.t, sigm)
	return Signature{Data: sig.Bytes()}, nil
}

// powSigned computes base^exp mod m for possibly negative exp. It inverts
// once, negates the exponent in place for the Exp call (restoring it
// before returning), and reports an error when base is not invertible —
// the seed code silently produced 0 there, which made bad inputs
// indistinguishable from corrupt partials. Combine evaluates its product
// as a single fraction in Montgomery form instead; this remains the
// reference implementation for the signed-exponent step and cross-checks
// the Montgomery chains in tests.
func powSigned(base, exp, m *big.Int) (*big.Int, error) {
	if exp.Sign() >= 0 {
		return new(big.Int).Exp(base, exp, m), nil
	}
	inv := new(big.Int).ModInverse(base, m)
	if inv == nil {
		return nil, fmt.Errorf("thresh: base not invertible modulo N")
	}
	exp.Neg(exp)
	inv.Exp(inv, exp, m)
	exp.Neg(exp)
	return inv, nil
}

// Verify checks sig^e == H(m) mod N — ordinary RSA verification, exactly
// what a remote recipient of an agreed message performs.
func (g *rsaGroupKey) Verify(msg []byte, sig Signature) error {
	if len(sig.Data) == 0 {
		return ErrBadSignature
	}
	sc := scratchPool.Get().(*combineScratch)
	defer scratchPool.Put(sc)
	s := sc.t.SetBytes(sig.Data)
	if s.Cmp(g.modulus) >= 0 {
		return ErrBadSignature
	}
	mc := g.mont
	ms := &sc.mont
	ms.reset(mc.K())
	x := hashToModulusInto(&sc.x, msg, g.modulus)
	sm := mc.toMont(ms, s)
	xm := mc.toMont(ms, x)
	chk := ms.alloc(mc.K())
	mc.expChain(ms, chk, [][]big.Word{sm}, []*big.Int{g.e})
	if !mont.Equal(chk, xm) {
		return ErrBadSignature
	}
	return nil
}
