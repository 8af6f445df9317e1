package sts

import (
	"bytes"
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

// SimMemo is a shard's memo of valid SimAuth verdicts: for each sender, the
// digest and MAC it last found valid under that sender's key. Every
// receiver of one broadcast checks the same (sender, digest, MAC), so all
// but the first check of a beacon on a shard are a byte comparison instead
// of a MAC. The memo keeps the bytes themselves, not a hash of them:
// hashing them would cost what the MAC costs.
//
// Only valid verdicts are stored, so a forged or corrupted beacon pays one
// MAC and never evicts the genuine entry. The memo is bound to one key
// table and is unsynchronised: nodes on different kernels must not share
// one.
type SimMemo struct {
	keys *SimKeys
	ents []simMemoEntry // indexed by sender ID
}

type simMemoEntry struct {
	valid  bool
	mac    [keyedmac.Size]byte
	digest []byte // the memo's own copy; Verify's msg is borrowed
}

// NewSimMemo returns an empty memo for the senders of keys.
func NewSimMemo(keys *SimKeys) *SimMemo {
	return &SimMemo{keys: keys, ents: make([]simMemoEntry, len(keys.keys))}
}

// Senders returns, in ascending order, the senders the memo holds a valid
// verdict for.
func (m *SimMemo) Senders() []link.NodeID {
	var ids []link.NodeID
	for i := range m.ents {
		if m.ents[i].valid {
			ids = append(ids, link.NodeID(i))
		}
	}
	return ids
}

// SimAuth is the sweep-scale stand-in: per-node keys derive from a network
// seed, signatures are HMACs padded to the configured wire size. Like
// thresh.SimScheme, it preserves the protocol semantics (a node can only
// sign as itself, because the simulator hands each node only its own
// SimAuth instance) at a fraction of the CPU cost.
type SimAuth struct {
	keys     *SimKeys
	key      *[keyedmac.Size]byte // this node's entry in keys
	sigBytes int
	memo     *SimMemo
	// stats receives the memo's hit/miss counts; New points it at the
	// owning service's Stats.
	stats *Stats
}

var _ BeaconAuth = (*SimAuth)(nil)

// NewSimAuth returns the keyed-MAC beacon authenticator for node self,
// which must have a key in the table. sigBytes sets the reported wire size
// (e.g. 64 to emulate 512-bit RSA). memo is the SimAuth memo of the node's
// shard, built for the same key table; nil verifies every beacon afresh,
// which tests use as the reference.
func NewSimAuth(keys *SimKeys, self link.NodeID, sigBytes int, memo *SimMemo) *SimAuth {
	if self < 0 || int(self) >= len(keys.keys) {
		panic(fmt.Sprintf("sts: node %d has no key in a table of %d", self, len(keys.keys)))
	}
	if memo != nil && memo.keys != keys {
		panic("sts: SimAuth memo built for another key table")
	}
	if sigBytes < keyedmac.Size {
		sigBytes = keyedmac.Size
	}
	return &SimAuth{keys: keys, key: &keys.keys[self], sigBytes: sigBytes, memo: memo, stats: new(Stats)}
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
// without a key in the table cannot have signed anything. With a memo, a
// check whose sender, digest and MAC equal the sender's entry is answered
// valid without computing the MAC; a MAC found valid replaces the entry.
func (a *SimAuth) Verify(id link.NodeID, msg, sig []byte) error {
	if len(sig) < keyedmac.Size || id < 0 || int(id) >= len(a.keys.keys) {
		return ErrSimAuthBadSig
	}
	var ent *simMemoEntry
	if a.memo != nil {
		ent = &a.memo.ents[id]
		if ent.valid && ent.mac == [keyedmac.Size]byte(sig) && bytes.Equal(ent.digest, msg) {
			a.stats.VerifyMemoHits++
			return nil
		}
		a.stats.VerifyMemoMisses++
	}
	mac := keyedmac.Sum(&a.keys.keys[id], msg)
	if !hmac.Equal(mac[:], sig[:keyedmac.Size]) {
		return ErrSimAuthBadSig
	}
	if ent != nil {
		ent.valid, ent.mac, ent.digest = true, mac, append(ent.digest[:0], msg...)
	}
	return nil
}

// SigBytes implements BeaconAuth.
func (a *SimAuth) SigBytes() int { return a.sigBytes }
