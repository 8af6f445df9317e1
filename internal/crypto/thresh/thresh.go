// Package thresh implements the threshold signatures of §2–§3 of the
// paper. A trusted dealer associates a signing key K_L with every
// dependability level L and hands each node an (L+1)-threshold share, so a
// valid signature under K_L proves that L+1 nodes cooperated.
//
// Two interchangeable schemes are provided:
//
//   - RSAScheme: Shoup's threshold RSA signature (practical threshold
//     signatures, EUROCRYPT 2000) built on math/big: partial signatures
//     x_i = H(m)^(2Δ·s_i) mod N with Δ = n!, each carrying Shoup's proof
//     that it used share i, combined with integer Lagrange coefficients
//     and finished with the extended-Euclid step, verified as ordinary
//     RSA. Every step is a plain math/big transcription: no sweep deals
//     this scheme, so it carries no arithmetic of its own (Montgomery
//     contexts are the node keys', package mont). This is the faithful
//     implementation. Its one departure from
//     Shoup: N's primes are not safe primes, so the proof catches any
//     altered partial, but its soundness against a signer who crafts a
//     partial from a small-order factor of Z_N* is below Shoup's.
//
//   - SimScheme: a keyed-MAC stand-in with the same interface and the same
//     signature wire size, used by default in the large parameter sweeps
//     so that a 50-run × 11-point experiment does not spend its time in
//     modular exponentiation. Its "signature" is the set of L+1 partials,
//     each a MAC under a per-share key, so the combining/verification
//     *protocol semantics* (L+1 distinct cooperating shares required, each
//     partial checkable on its own) are identical. Its partials carry no
//     proof, so they are smaller on the wire than RSA's.
//
// Both schemes carry the whole key lifecycle on two interfaces. A Dealer
// establishes a key — Deal, as the paper's trusted dealer, or DKG, the
// dealerless keygen with complaint and blame rounds — and later moves
// its shares to a new epoch: Refresh re-randomizes them among the same
// holders (the proactive refresh §2 defers), Reshare re-deals them to a
// new (k, n) as membership changes. A GroupKey combines and verifies and
// reports its Epoch, which both transitions bump and verification memos
// key on. Signers carry no epoch.
package thresh

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"innercircle/internal/crypto/keyedmac"
)

// Partial is one node's contribution toward a threshold signature.
type Partial struct {
	Index int // share index, >= 1
	Data  []byte
	// Proof shows that Data was made with share Index (threshold RSA:
	// Shoup's proof of correctness). It is nil for the keyed-MAC scheme,
	// whose Data checks itself.
	Proof []byte
}

// Signature is a combined threshold signature.
type Signature struct {
	Data []byte
}

// WireSize returns the byte count the signature occupies in a message.
func (s Signature) WireSize() int { return len(s.Data) }

// Signer is one node's share of one group key. PartialSign never depends on
// other nodes' shares, so a compromised node can produce only its own
// partial.
type Signer interface {
	// Index returns the share index.
	Index() int
	// PartialSign produces this share's contribution for msg.
	PartialSign(msg []byte) (Partial, error)
}

// GroupKey is the public side of one dealt key: any node can combine enough
// partials into a signature and verify signatures.
type GroupKey interface {
	// Threshold returns k: k+1 distinct valid partials are needed.
	Threshold() int
	// Players returns n, the number of dealt shares.
	Players() int
	// Combine assembles a signature from the co-signer set: the first
	// k+1 partials, in the order given, whose indexes are distinct and in
	// 1..n; the rest are ignored. Fewer such partials is
	// ErrTooFewPartials; a set holding a partial that VerifyPartial
	// rejects is ErrBadPartial, naming the set.
	Combine(msg []byte, partials []Partial) (Signature, error)
	// Verify checks a combined signature for msg.
	Verify(msg []byte, sig Signature) error
	// VerifyPartial reports whether p is the partial signature on msg
	// of share p.Index as the current epoch dealt it. A partial that
	// passes combines with any k others that pass.
	VerifyPartial(msg []byte, p Partial) bool
	// SigBytes returns the wire size of signatures under this key.
	SigBytes() int
	// Epoch returns the key-material epoch: 0 when the key is dealt or
	// generated, incremented by every Refresh and Reshare. The public key
	// survives both, but the live share set does not, so the epoch is the
	// one value verification memos must key on: a verdict cached at epoch
	// E is never served at E+1.
	Epoch() uint64
}

// Dealer runs a group key's whole lifecycle: it establishes the key —
// dealt by the trusted dealer the paper assumes at system initialization
// (§2), or generated dealerless — and later moves its shares to a new
// epoch. Both schemes implement every method.
//
// Refresh and Reshare mutate the group key in place, since it is the
// shared verification oracle every node's public ring holds, and bump its
// Epoch. Callers must quiesce signing and verification against the key
// for the duration of either call: the membership layer drains in-flight
// vote rounds first (node.Membership), and scenario churn runs
// transitions on the single-threaded kernel loop.
type Dealer interface {
	// Deal creates a key with threshold k among n players and returns the
	// public group key plus one Signer per player (index 1..n).
	Deal(k, n int) (GroupKey, []Signer, error)
	// DKG is Deal's dealerless counterpart: the cfg.N participants run
	// the qualification round (commitments, complaints, blame) and the
	// key is shared among the qualified ones only, with the dealer object
	// standing in for the ideal key-material functionality (see dkg.go).
	DKG(cfg DKGConfig) (*DKGResult, error)
	// Refresh is the proactive share refresh §2 of the paper defers to
	// Herzberg et al.: it re-randomizes the shares of a key this dealer
	// established, so an adversary must compromise k+1 nodes within one
	// epoch — shares stolen across epochs do not combine. The returned
	// slice has one new signer per entry of old, at the same share index;
	// old signers' partials stop combining with new ones. The public key
	// is unchanged; which earlier signatures stay valid follows the
	// scheme, as for Reshare.
	Refresh(gk GroupKey, old []Signer) ([]Signer, error)
	// Reshare is the membership-change primitive: it re-deals the key's
	// secret with threshold newK among newN players and returns the new
	// signers (index 1..newN), so the signing quorum follows the inner
	// circle as nodes depart, are expelled, or join. The public key is
	// unchanged and old signers' partials no longer combine. Threshold-RSA
	// signatures combined before stay valid (modulus and exponent are
	// untouched); the keyed-MAC SimScheme re-derives its share keys, so
	// its old signatures expire with the epoch, the honest analogue of its
	// refresh.
	Reshare(gk GroupKey, newK, newN int) ([]Signer, error)
}

var (
	_ Dealer = (*RSADealer)(nil)
	_ Dealer = (*SimDealer)(nil)
)

// Errors shared by both schemes.
var (
	ErrTooFewPartials = errors.New("thresh: not enough distinct valid partials")
	ErrBadSignature   = errors.New("thresh: signature verification failed")
	ErrBadPartial     = errors.New("thresh: invalid partial signature")
)

// coSigners picks the co-signer set both schemes combine: the first k+1
// partials whose indexes are distinct and in 1..n.
func coSigners(partials []Partial, k, n int) ([]Partial, error) {
	use := make([]Partial, 0, k+1)
	for _, p := range partials {
		if p.Index < 1 || p.Index > n || slices.ContainsFunc(use, func(q Partial) bool { return q.Index == p.Index }) {
			continue
		}
		if use = append(use, p); len(use) == k+1 {
			return use, nil
		}
	}
	return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewPartials, len(use), k+1)
}

// errCorruptSet is Combine's one failure over a full co-signer set: some
// partial of it is not what its share makes. Partials that passed
// VerifyPartial never cause it; VerifyPartial names the culprit.
func errCorruptSet(set []Partial) error {
	idx := make([]int, len(set))
	for i, p := range set {
		idx[i] = p.Index
	}
	return fmt.Errorf("%w: combined signature invalid (corrupt partial among %v)", ErrBadPartial, idx)
}

// ---- SimScheme ----------------------------------------------------------

// SimDealer deals SimScheme keys. The zero value is unusable; use
// NewSimDealer.
type SimDealer struct {
	master  []byte
	sigSize int
	counter uint64
}

// NewSimDealer returns a dealer whose keys derive from seed and whose
// signatures report wireBytes as their size (so energy/airtime accounting
// matches the configured key length, e.g. 128 for "1024-bit keys").
func NewSimDealer(seed []byte, wireBytes int) *SimDealer {
	if wireBytes <= 0 {
		wireBytes = 128
	}
	return &SimDealer{master: append([]byte(nil), seed...), sigSize: wireBytes}
}

// Deal implements Dealer.
func (d *SimDealer) Deal(k, n int) (GroupKey, []Signer, error) {
	if k < 0 || n < 1 || k+1 > n {
		return nil, nil, fmt.Errorf("thresh: invalid threshold k=%d n=%d", k, n)
	}
	d.counter++
	keyID := d.counter
	// Index 0 is never a share index, so it doubles as the per-key root
	// from which reshares derive replacement share keys.
	gk := &simGroupKey{k: k, n: n, sigSize: d.sigSize, root: simDerive(d.master, keyID, 0)}
	gk.shareKeys = make([][keyedmac.Size]byte, n+1)
	signers := make([]Signer, n)
	for i := 1; i <= n; i++ {
		gk.shareKeys[i] = simDerive(d.master, keyID, i)
		signers[i-1] = &simSigner{index: i, key: gk.shareKeys[i]}
	}
	return gk, signers, nil
}

// simDerive is HMAC-SHA256(master, keyID‖index), the derivation of every
// sim-scheme key: one per share of every level key of every network. HMAC
// zero-pads a key shorter than its block, so a master of at most
// keyedmac.Size bytes copied into a zeroed array is the same key, and
// keyedmac.Sum derives it off the heap. A longer master, which HMAC
// hashes first, takes crypto/hmac.
func simDerive(master []byte, keyID uint64, index int) [keyedmac.Size]byte {
	var msg [16]byte
	binary.BigEndian.PutUint64(msg[:8], keyID)
	binary.BigEndian.PutUint64(msg[8:], uint64(index))
	if len(master) > keyedmac.Size {
		return hmacSum(master, msg)
	}
	var key [keyedmac.Size]byte
	copy(key[:], master)
	return keyedmac.Sum(&key, msg[:])
}

// hmacSum is HMAC-SHA256(master, msg) through crypto/hmac. msg is a copy,
// so only this path's copy escapes to the heap.
func hmacSum(master []byte, msg [16]byte) (sum [keyedmac.Size]byte) {
	mac := hmac.New(sha256.New, master)
	_, _ = mac.Write(msg[:])
	mac.Sum(sum[:0])
	return sum
}

type simSigner struct {
	index int
	key   [keyedmac.Size]byte
}

func (s *simSigner) Index() int { return s.index }

// PartialSign allocates only the returned partial's 32 bytes.
func (s *simSigner) PartialSign(msg []byte) (Partial, error) {
	mac := keyedmac.Sum(&s.key, msg)
	return Partial{Index: s.index, Data: append([]byte(nil), mac[:]...)}, nil
}

// simGroupKey is read by every node of a replica, on several shard
// goroutines, so it stays read-only while a run signs and verifies under
// it: only Refresh and Reshare write it, and their callers quiesce the key
// first (see Dealer).
type simGroupKey struct {
	k, n      int
	sigSize   int
	epoch     uint64
	root      [keyedmac.Size]byte   // per-key derivation root, feeds reshare re-keying
	shareKeys [][keyedmac.Size]byte // index 1..n
}

var _ GroupKey = (*simGroupKey)(nil)

func (g *simGroupKey) Threshold() int { return g.k }
func (g *simGroupKey) Players() int   { return g.n }
func (g *simGroupKey) SigBytes() int  { return g.sigSize }

// Epoch implements GroupKey. A refresh or reshare re-derives every share
// key in place, changing which partials verify.
func (g *simGroupKey) Epoch() uint64 { return g.epoch }

// Combine implements GroupKey: the signature encodes the co-signer set's
// partials, each checked against its share key.
func (g *simGroupKey) Combine(msg []byte, partials []Partial) (Signature, error) {
	use, err := coSigners(partials, g.k, g.n)
	if err != nil {
		return Signature{}, err
	}
	var buf bytes.Buffer
	for _, p := range use {
		if !g.checkPartial(msg, p) {
			return Signature{}, errCorruptSet(use)
		}
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], uint32(p.Index))
		buf.Write(idx[:])
		buf.Write(p.Data)
	}
	return Signature{Data: buf.Bytes()}, nil
}

// VerifyPartial implements GroupKey: a keyed-MAC partial is its own
// proof, so it carries none.
func (g *simGroupKey) VerifyPartial(msg []byte, p Partial) bool {
	return p.Index >= 1 && p.Index <= g.n && len(p.Proof) == 0 && g.checkPartial(msg, p)
}

// checkPartial allocates nothing: the MAC is computed on the stack and
// compared in constant time with all of p.Data, so a partial of any other
// length fails.
func (g *simGroupKey) checkPartial(msg []byte, p Partial) bool {
	mac := keyedmac.Sum(&g.shareKeys[p.Index], msg)
	return hmac.Equal(mac[:], p.Data)
}

func (g *simGroupKey) Verify(msg []byte, sig Signature) error {
	const rec = 4 + sha256.Size
	if len(sig.Data)%rec != 0 {
		return ErrBadSignature
	}
	count := 0
	seen := make(map[int]bool)
	for off := 0; off+rec <= len(sig.Data); off += rec {
		idx := int(binary.BigEndian.Uint32(sig.Data[off : off+4]))
		if idx < 1 || idx > g.n || seen[idx] {
			return ErrBadSignature
		}
		p := Partial{Index: idx, Data: sig.Data[off+4 : off+rec]}
		if !g.checkPartial(msg, p) {
			return ErrBadSignature
		}
		seen[idx] = true
		count++
	}
	if count < g.k+1 {
		return fmt.Errorf("%w: %d co-signers, need %d", ErrBadSignature, count, g.k+1)
	}
	return nil
}
