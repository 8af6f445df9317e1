package sts

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"innercircle/internal/crypto/keyedmac"
	"innercircle/internal/crypto/nsl"
	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/link"
)

// BeaconAuth signs and verifies STS beacons. Two implementations exist,
// mirroring the two threshold-signature schemes: RSAAuth is the faithful
// public-key implementation, SimAuth is a keyed-MAC stand-in with the same
// wire size for large parameter sweeps (the figures depend on beacon
// *bytes*, which both produce identically).
type BeaconAuth interface {
	// Sign produces this node's signature over msg.
	Sign(msg []byte) []byte
	// Verify checks a signature allegedly produced by node id.
	Verify(id link.NodeID, msg, sig []byte) error
	// SigBytes is the wire size of signatures.
	SigBytes() int
}

// RSAAuth signs beacons with the node's RSA key pair and verifies against
// the shared directory. Every receiver of one broadcast verifies the same
// (key, digest, signature) triple, and the verdict is a pure function of
// it, so Verify answers from a memo shared by the nodes of one shard: one
// modular exponentiation per broadcast instead of one per receiver.
type RSAAuth struct {
	kp   *nsl.KeyPair
	dir  nsl.Directory
	memo *sigcache.Cache
	// stats receives the memo's hit/miss counts; New points it at the
	// owning service's Stats.
	stats *Stats
}

var _ BeaconAuth = (*RSAAuth)(nil)

// NewRSAAuth returns the public-key beacon authenticator. memo is the
// beacon-verification memo of the node's shard (the cache is
// unsynchronised, so nodes on different kernels must not share one); nil
// verifies every beacon afresh, which tests use as the reference.
func NewRSAAuth(kp *nsl.KeyPair, dir nsl.Directory, memo *sigcache.Cache) *RSAAuth {
	return &RSAAuth{kp: kp, dir: dir, memo: memo, stats: new(Stats)}
}

// Sign implements BeaconAuth.
func (a *RSAAuth) Sign(msg []byte) []byte { return a.kp.Sign(msg) }

// Verify implements BeaconAuth. Both verdicts are memoized, as the exact
// error. The key holds the verifying key itself (two big.Int pointers, so
// a re-keyed node is a different key), the digest and the signature:
// leave any one out and a forgery could be answered with a genuine
// beacon's verdict.
func (a *RSAAuth) Verify(id link.NodeID, msg, sig []byte) error {
	pk, err := a.dir.PublicKey(int64(id))
	if err != nil {
		return err
	}
	if a.memo == nil {
		return nsl.Verify(pk, msg, sig)
	}
	k := sigcache.Key{Kind: sigcache.KindNSL, Scope: pk, Sum: sigcache.HashParts(msg, sig)}
	if e, ok := a.memo.Get(k); ok {
		a.stats.VerifyMemoHits++
		return e.Err
	}
	a.stats.VerifyMemoMisses++
	err = nsl.Verify(pk, msg, sig)
	a.memo.Put(k, sigcache.Entry{Err: err})
	return err
}

// SigBytes implements BeaconAuth.
func (a *RSAAuth) SigBytes() int { return nsl.SigBytes(a.kp.Pub) }

// ErrSimAuthBadSig is returned by SimAuth.Verify for invalid signatures.
var ErrSimAuthBadSig = errors.New("sts: bad beacon MAC")

// SimKeys is a replica's table of SimAuth node keys: entry i is
// HMAC-SHA256(seed, i), the key node i signs its beacons with. It is built
// once per replica and shared read-only by every node's SimAuth (also
// across shards), so verifying a beacon costs a table read where it used to
// cost a key derivation, and the replica holds 32 B per node.
type SimKeys struct {
	keys [][keyedmac.Size]byte
}

// NewSimKeys derives the keys of nodes 0..n-1 from the network seed.
func NewSimKeys(seed []byte, n int) *SimKeys {
	t := &SimKeys{keys: make([][keyedmac.Size]byte, n)}
	mac := hmac.New(sha256.New, seed)
	var id [8]byte
	for i := range t.keys {
		mac.Reset()
		binary.BigEndian.PutUint64(id[:], uint64(i))
		_, _ = mac.Write(id[:])
		mac.Sum(t.keys[i][:0])
	}
	return t
}

// SimAuth is the sweep-scale stand-in: per-node keys derive from a network
// seed, signatures are HMACs padded to the configured wire size. Like
// thresh.SimScheme, it preserves the protocol semantics (a node can only
// sign as itself, because the simulator hands each node only its own
// SimAuth instance) at a fraction of the CPU cost.
//
// Verdicts are not memoized: a memo lookup hashes digest and signature,
// which costs what the MAC itself costs.
type SimAuth struct {
	keys     *SimKeys
	key      *[keyedmac.Size]byte // this node's entry in keys
	sigBytes int
}

var _ BeaconAuth = (*SimAuth)(nil)

// NewSimAuth returns the keyed-MAC beacon authenticator for node self,
// which must have a key in the table. sigBytes sets the reported wire size
// (e.g. 64 to emulate 512-bit RSA).
func NewSimAuth(keys *SimKeys, self link.NodeID, sigBytes int) *SimAuth {
	if self < 0 || int(self) >= len(keys.keys) {
		panic(fmt.Sprintf("sts: node %d has no key in a table of %d", self, len(keys.keys)))
	}
	if sigBytes < keyedmac.Size {
		sigBytes = keyedmac.Size
	}
	return &SimAuth{keys: keys, key: &keys.keys[self], sigBytes: sigBytes}
}

// Sign implements BeaconAuth: the MAC, zero-padded to the emulated wire
// size.
func (a *SimAuth) Sign(msg []byte) []byte {
	mac := keyedmac.Sum(a.key, msg)
	out := make([]byte, a.sigBytes)
	copy(out, mac[:])
	return out
}

// Verify implements BeaconAuth. Only the MAC is compared; the padding
// carries nothing, so a bit flipped there still verifies. A sender
// without a key in the table cannot have signed anything.
func (a *SimAuth) Verify(id link.NodeID, msg, sig []byte) error {
	if len(sig) < keyedmac.Size || id < 0 || int(id) >= len(a.keys.keys) {
		return ErrSimAuthBadSig
	}
	mac := keyedmac.Sum(&a.keys.keys[id], msg)
	if !hmac.Equal(mac[:], sig[:keyedmac.Size]) {
		return ErrSimAuthBadSig
	}
	return nil
}

// SigBytes implements BeaconAuth.
func (a *SimAuth) SigBytes() int { return a.sigBytes }
