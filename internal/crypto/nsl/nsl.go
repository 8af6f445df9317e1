// Package nsl implements the Needham–Schroeder–Lowe public-key
// authentication protocol (Lowe's fixed variant, TACAS 1996), which §4.1 of
// the paper uses to authenticate neighbour links inside the Secure Topology
// Service. The three-message exchange is
//
//	M1: A→B  {Na, A}_pkB
//	M2: B→A  {Na, Nb, B}_pkA        (Lowe's fix: B's identity included)
//	M3: A→B  {Nb}_pkB
//
// after which both parties share the session key H(Na ‖ Nb), used to MAC
// subsequent STS beacons.
//
// Encryption is textbook RSA with randomized padding — a faithful protocol
// model for the simulator, not hardened production cryptography (no OAEP,
// nothing constant-time; see DESIGN.md's substitution table).
//
// The same keys sign STS beacons and sensed values (sign.go), which is what
// a sensor replica spends its crypto time on. Every exponentiation — Sign,
// Verify, the handshake's encrypt and decrypt, and the primality test of
// the prime search (prime.go) — runs on Montgomery contexts (package
// mont). GenerateKeyPair builds a key's contexts once: one per CRT prime
// for the private operation, one for N for the public one, the latter
// carried by the PublicKey itself so a verifier holding only the directory
// entry reaches it. The contexts are immutable and a key's signature memo
// (sign.go) is locked, so keys and directories are shared across simulator
// shards; math/big remains for the key's
// products and inverses, the Garner recombination and byte conversion.
// Results are bit-identical to c^d mod N and s^e mod N computed directly
// (crt_test.go, pinned_test.go).
package nsl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"innercircle/internal/crypto/mont"
)

// NonceSize is the nonce length in bytes.
const NonceSize = 16

// SessionKey is the key both parties derive from a completed handshake.
type SessionKey [sha256.Size]byte

// PublicKey is an RSA public key. GenerateKeyPair attaches the modulus's
// Montgomery context; every copy of the key shares it (and stays == to the
// original, which the verification memos rely on). A key assembled by
// literal has none and gets one built per operation — the same arithmetic,
// uncached.
type PublicKey struct {
	N *big.Int
	E *big.Int

	mc *mont.Ctx
}

// context returns N's Montgomery context, or nil for a modulus Montgomery
// arithmetic is undefined on (even or non-positive: no RSA modulus).
func (pub PublicKey) context() *mont.Ctx {
	if pub.mc != nil {
		return pub.mc
	}
	if pub.N.Sign() <= 0 || pub.N.Bit(0) == 0 {
		return nil
	}
	return mont.New(pub.N)
}

// KeyPair is a party's RSA key pair. The private operation runs on the
// Chinese-remainder decomposition: two half-size exponentiations plus
// Garner recombination compute c^d mod N about four times faster than the
// direct form, with bit-identical results. Value signing and beacon signing
// are the dominant replica-level crypto cost, so key generation precomputes
// the decomposition and one Montgomery context per prime.
type KeyPair struct {
	Pub  PublicKey
	d    *big.Int // the tests' direct-exponentiation reference
	p, q crtFactor
	qinv *big.Int // q⁻¹ mod p

	memo signMemo // Sign's recent signatures (sign.go)
}

// crtFactor is one prime factor of N with what exponentiating under it
// needs.
type crtFactor struct {
	n  *big.Int   // the prime
	mc *mont.Ctx  // its Montgomery context
	d  []big.Word // d mod (prime − 1)
}

func newCRTFactor(prime, d *big.Int) crtFactor {
	dp := new(big.Int).Sub(prime, big.NewInt(1))
	return crtFactor{n: prime, mc: mont.New(prime), d: dp.Mod(d, dp).Bits()}
}

// Working sets of moduli up to these widths (in words) stay on the stack:
// on a 64-bit machine, the N-context of a 1024-bit key and its primes.
const (
	stackWordsN = 16
	stackWordsP = stackWordsN / 2
)

// exp computes x^d mod the prime for an x of any width: x is brought below
// the prime once, then raised by a fixed 4-bit window in the Montgomery
// domain.
func (f *crtFactor) exp(x []big.Word) *big.Int {
	mc := f.mc
	k := mc.K()
	var stack [21*stackWordsP + 1]big.Word // 2k + ExpScratch
	arena := stack[:]
	if need := 2*k + mc.ExpScratch(); need > len(arena) {
		arena = make([]big.Word, need)
	}
	v, w, scratch := arena[:k], arena[k:2*k], arena[2*k:]
	mc.Reduce(v, x, scratch)
	mc.Exp(v, v, f.d, scratch)
	mc.FromMont(w, v, scratch)
	return new(big.Int).SetBits(append([]big.Word(nil), w...))
}

// privExp computes x^d mod N for x below N.
func (kp *KeyPair) privExp(x []big.Word) *big.Int {
	m1 := kp.p.exp(x)
	m2 := kp.q.exp(x)
	h := m1.Sub(m1, m2) // Garner: m = m2 + q·(qinv·(m1 − m2) mod p)
	h.Mul(h, kp.qinv)
	h.Mod(h, kp.p.n)
	h.Mul(h, kp.q.n)
	return h.Add(h, m2)
}

// GenerateKeyPair creates an RSA key pair of the given modulus size whose
// primes come from Prime: the key pair is a pure function of randSrc, so
// seeded streams reproduce identical keys across processes.
func GenerateKeyPair(bits int, randSrc io.Reader) (*KeyPair, error) {
	if bits < 256 {
		return nil, errors.New("nsl: modulus too small")
	}
	one := big.NewInt(1)
	e := big.NewInt(65537)
	for {
		p, err := Prime(randSrc, bits/2)
		if err != nil {
			return nil, fmt.Errorf("nsl: prime: %w", err)
		}
		q, err := Prime(randSrc, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("nsl: prime: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		qinv := new(big.Int).ModInverse(q, p)
		if d == nil || qinv == nil {
			continue
		}
		return &KeyPair{
			Pub:  PublicKey{N: n, E: new(big.Int).Set(e), mc: mont.New(n)},
			d:    d,
			p:    newCRTFactor(p, d),
			q:    newCRTFactor(q, d),
			qinv: qinv,
		}, nil
	}
}

// read fills buf from r, the caller's stream: there is no default source,
// so a nil r is an error.
func read(r io.Reader, buf []byte) error {
	if r == nil {
		return errors.New("nsl: nil random source")
	}
	_, err := io.ReadFull(r, buf)
	return err
}

// encrypt RSA-encrypts plain (must be shorter than the modulus minus the
// pad) with randomized padding 0x02 ‖ r[8] ‖ 0x00 ‖ plain.
func encrypt(pub PublicKey, plain []byte, randSrc io.Reader) ([]byte, error) {
	max := (pub.N.BitLen()+7)/8 - 1
	if len(plain)+10 > max {
		return nil, fmt.Errorf("nsl: plaintext too long (%d bytes for %d-bit key)", len(plain), pub.N.BitLen())
	}
	padded := make([]byte, 10+len(plain))
	padded[0] = 0x02
	if err := read(randSrc, padded[1:9]); err != nil {
		return nil, fmt.Errorf("nsl: pad: %w", err)
	}
	padded[9] = 0x00
	copy(padded[10:], plain)
	mc := pub.context()
	if mc == nil {
		return nil, errors.New("nsl: bad public key")
	}
	k := mc.K()
	arena := make([]big.Word, 2*k+mc.ShortScratch())
	m, c, scratch := arena[:k], arena[k:2*k], arena[2*k:]
	mont.SetBytes(m, padded) // below N: max bytes, one short of the modulus
	pub.exp(mc, c, m, scratch)
	mc.FromMont(m, c, scratch)
	return new(big.Int).SetBits(m).Bytes(), nil
}

// exp computes z = x^E·R mod N — the public operation, left in the
// Montgomery domain — for x below N. scratch must hold mc.ShortScratch()
// words; z must not alias x.
func (pub PublicKey) exp(mc *mont.Ctx, z, x, scratch []big.Word) {
	mc.ToMont(z, x, scratch)
	mc.ExpShort(z, z, pub.E.Bits(), scratch)
}

// decrypt reverses encrypt.
func (kp *KeyPair) decrypt(cipher []byte) ([]byte, error) {
	c := new(big.Int).SetBytes(cipher)
	if c.Cmp(kp.Pub.N) >= 0 {
		return nil, errors.New("nsl: ciphertext out of range")
	}
	padded := kp.privExp(c.Bits()).Bytes()
	// Layout: [0x02, r8 (8 bytes), 0x00, plain]. The leading 0x02 survives
	// the big.Int round trip because it is non-zero.
	if len(padded) < 10 || padded[0] != 0x02 || padded[9] != 0x00 {
		return nil, errors.New("nsl: bad padding")
	}
	return padded[10:], nil
}

// Wire messages. Fields are exported for size accounting by the transport.
type (
	// Msg1 is {Na, A}_pkB.
	Msg1 struct {
		To     int64 // B, cleartext routing hint
		Cipher []byte
	}
	// Msg2 is {Na, Nb, B}_pkA.
	Msg2 struct {
		To     int64 // A
		Cipher []byte
	}
	// Msg3 is {Nb}_pkB.
	Msg3 struct {
		To     int64 // B
		Cipher []byte
	}
)

// DirectoryMap is the static table of the parties' public keys.
type DirectoryMap map[int64]PublicKey

// PublicKey resolves a party's public key.
func (d DirectoryMap) PublicKey(id int64) (PublicKey, error) {
	pk, ok := d[id]
	if !ok {
		return PublicKey{}, fmt.Errorf("nsl: unknown party %d", id)
	}
	return pk, nil
}

// Errors reported by handshake processing.
var (
	ErrProtocol  = errors.New("nsl: protocol violation")
	ErrNoSession = errors.New("nsl: no handshake in progress")
)

// Party is one protocol participant. Not safe for concurrent use.
type Party struct {
	id      int64
	kp      *KeyPair
	dir     DirectoryMap
	randSrc io.Reader

	// initiator state: peer -> Na
	pendingInit map[int64][]byte
	// responder state: peer -> (Na, Nb)
	pendingResp map[int64]*respState
}

// NewParty creates a protocol participant that draws its nonces and
// padding from randSrc; with a nil randSrc every handshake step fails.
func NewParty(id int64, kp *KeyPair, dir DirectoryMap, randSrc io.Reader) *Party {
	return &Party{
		id:          id,
		kp:          kp,
		dir:         dir,
		randSrc:     randSrc,
		pendingInit: make(map[int64][]byte),
		pendingResp: make(map[int64]*respState),
	}
}

// ID returns the party identifier.
func (p *Party) ID() int64 { return p.id }

func (p *Party) nonce() ([]byte, error) {
	n := make([]byte, NonceSize)
	if err := read(p.randSrc, n); err != nil {
		return nil, fmt.Errorf("nsl: nonce: %w", err)
	}
	return n, nil
}

func sessionKey(na, nb []byte) SessionKey {
	h := sha256.New()
	_, _ = h.Write(na)
	_, _ = h.Write(nb)
	var k SessionKey
	copy(k[:], h.Sum(nil))
	return k
}

func encodeID(id int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

// Initiate starts a handshake with peer and returns M1 to transmit.
func (p *Party) Initiate(peer int64) (Msg1, error) {
	pk, err := p.dir.PublicKey(peer)
	if err != nil {
		return Msg1{}, err
	}
	na, err := p.nonce()
	if err != nil {
		return Msg1{}, err
	}
	plain := append(append([]byte(nil), na...), encodeID(p.id)...)
	c, err := encrypt(pk, plain, p.randSrc)
	if err != nil {
		return Msg1{}, err
	}
	p.pendingInit[peer] = na
	return Msg1{To: peer, Cipher: c}, nil
}

// OnMsg1 processes M1 as responder and returns M2.
func (p *Party) OnMsg1(m Msg1) (Msg2, error) {
	plain, err := p.kp.decrypt(m.Cipher)
	if err != nil {
		return Msg2{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if len(plain) != NonceSize+8 {
		return Msg2{}, fmt.Errorf("%w: bad M1 length", ErrProtocol)
	}
	na := plain[:NonceSize]
	peer := int64(binary.BigEndian.Uint64(plain[NonceSize:]))
	pk, err := p.dir.PublicKey(peer)
	if err != nil {
		return Msg2{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	nb, err := p.nonce()
	if err != nil {
		return Msg2{}, err
	}
	plain2 := append(append(append([]byte(nil), na...), nb...), encodeID(p.id)...)
	c, err := encrypt(pk, plain2, p.randSrc)
	if err != nil {
		return Msg2{}, err
	}
	p.pendingResp[peer] = &respState{na: na, nb: nb}
	return Msg2{To: peer, Cipher: c}, nil
}

// OnMsg2 processes M2 as initiator; on success it returns M3 and the
// session key. from is the claimed sender, checked against the identity
// inside the ciphertext (Lowe's fix — without it the classic
// man-in-the-middle attack works).
func (p *Party) OnMsg2(from int64, m Msg2) (Msg3, SessionKey, error) {
	na, ok := p.pendingInit[from]
	if !ok {
		return Msg3{}, SessionKey{}, fmt.Errorf("%w: peer %d", ErrNoSession, from)
	}
	plain, err := p.kp.decrypt(m.Cipher)
	if err != nil {
		return Msg3{}, SessionKey{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if len(plain) != 2*NonceSize+8 {
		return Msg3{}, SessionKey{}, fmt.Errorf("%w: bad M2 length", ErrProtocol)
	}
	gotNa := plain[:NonceSize]
	nb := plain[NonceSize : 2*NonceSize]
	claimed := int64(binary.BigEndian.Uint64(plain[2*NonceSize:]))
	if !bytes.Equal(gotNa, na) {
		return Msg3{}, SessionKey{}, fmt.Errorf("%w: nonce Na mismatch", ErrProtocol)
	}
	if claimed != from {
		return Msg3{}, SessionKey{}, fmt.Errorf("%w: responder identity %d != %d (Lowe check)", ErrProtocol, claimed, from)
	}
	pk, err := p.dir.PublicKey(from)
	if err != nil {
		return Msg3{}, SessionKey{}, err
	}
	c, err := encrypt(pk, nb, p.randSrc)
	if err != nil {
		return Msg3{}, SessionKey{}, err
	}
	delete(p.pendingInit, from)
	return Msg3{To: from, Cipher: c}, sessionKey(na, nb), nil
}

// OnMsg3 processes M3 as responder; on success it returns the session key.
func (p *Party) OnMsg3(from int64, m Msg3) (SessionKey, error) {
	st, ok := p.pendingResp[from]
	if !ok {
		return SessionKey{}, fmt.Errorf("%w: peer %d", ErrNoSession, from)
	}
	plain, err := p.kp.decrypt(m.Cipher)
	if err != nil {
		return SessionKey{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if !bytes.Equal(plain, st.nb) {
		return SessionKey{}, fmt.Errorf("%w: nonce Nb mismatch", ErrProtocol)
	}
	delete(p.pendingResp, from)
	return sessionKey(st.na, st.nb), nil
}

// respState is the responder's per-peer handshake memory.
type respState struct {
	na, nb []byte
}
