package sts

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"innercircle/internal/crypto/keyedmac"
	"innercircle/internal/crypto/nsl"
	"innercircle/internal/link"
)

// Auth is a node's individual authenticator: it signs the node's STS
// beacons (§4.1) and, in statistical voting, the values it hands a center
// (§4.2), and verifies either by the claimed signer's node ID. node.Build
// gives each node one Auth and hands it to both services. Two
// implementations exist, mirroring the two threshold-signature schemes:
// RSAAuth is the faithful public-key implementation, SimAuth is a
// keyed-MAC stand-in with the same wire size for large parameter sweeps
// (the figures depend on signature sizes, not on what they cost to
// compute).
type Auth interface {
	// Sign produces this node's signature over msg.
	Sign(msg []byte) []byte
	// Verify checks a signature allegedly produced by node id.
	Verify(id link.NodeID, msg, sig []byte) error
	// SigBytes is the wire size of signatures.
	SigBytes() int
}

// Memo is a shard's memo of valid beacon verdicts: for each sender ID, its
// own copies of the digest and signature last found valid. Every receiver
// of one broadcast checks the same bytes and, under a replica's fixed key
// material, gets the same verdict, so a shard's topology services check the
// memo before their authenticator and all but the first check of a beacon
// are a byte comparison, cheaper than hashing the bytes into a key. Only
// valid verdicts are stored: a forged or corrupted beacon reaches the
// authenticator at every receiver and never evicts the genuine entry. A
// memo is unsynchronised: nodes on different kernels must not share one.
type Memo struct {
	ents []memoEntry // indexed by sender ID
}

type memoEntry struct {
	valid       bool
	digest, sig []byte
}

// NewMemo returns an empty memo for senders 0..n-1.
func NewMemo(n int) *Memo {
	return &Memo{ents: make([]memoEntry, n)}
}

// entry returns the sender's entry, nil for an ID outside the table.
func (m *Memo) entry(id link.NodeID) *memoEntry {
	if id < 0 || int(id) >= len(m.ents) {
		return nil
	}
	return &m.ents[id]
}

// Senders returns, in ascending order, the senders the memo holds a valid
// verdict for.
func (m *Memo) Senders() []link.NodeID {
	var ids []link.NodeID
	for i := range m.ents {
		if m.ents[i].valid {
			ids = append(ids, link.NodeID(i))
		}
	}
	return ids
}

// RSAAuth signs with the node's RSA key pair and verifies against the
// shared directory.
type RSAAuth struct {
	kp  *nsl.KeyPair
	dir nsl.DirectoryMap
}

var _ Auth = (*RSAAuth)(nil)

// NewRSAAuth returns the public-key authenticator.
func NewRSAAuth(kp *nsl.KeyPair, dir nsl.DirectoryMap) *RSAAuth {
	return &RSAAuth{kp: kp, dir: dir}
}

// Sign implements Auth.
func (a *RSAAuth) Sign(msg []byte) []byte { return a.kp.Sign(msg) }

// Verify implements Auth.
func (a *RSAAuth) Verify(id link.NodeID, msg, sig []byte) error {
	pk, err := a.dir.PublicKey(int64(id))
	if err != nil {
		return err
	}
	return nsl.Verify(pk, msg, sig)
}

// SigBytes implements Auth.
func (a *RSAAuth) SigBytes() int { return nsl.SigBytes(a.kp.Pub) }

// ErrSimAuthBadSig is returned by SimAuth.Verify for invalid signatures.
var ErrSimAuthBadSig = errors.New("sts: bad MAC")

// SimKeys is a replica's table of SimAuth node keys: entry i is
// HMAC-SHA256(seed, i), the key node i signs its beacons and values with.
// It is built once per replica and shared read-only by every node's
// SimAuth (also across shards), so verifying a signature costs a table
// read where it used to cost a key derivation, and the replica holds 32 B
// per node.
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
type SimAuth struct {
	keys     *SimKeys
	key      *[keyedmac.Size]byte // this node's entry in keys
	sigBytes int
}

var _ Auth = (*SimAuth)(nil)

// NewSimAuth returns the keyed-MAC authenticator for node self,
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

// Sign implements Auth: the MAC, zero-padded to the emulated wire
// size.
func (a *SimAuth) Sign(msg []byte) []byte {
	mac := keyedmac.Sum(a.key, msg)
	out := make([]byte, a.sigBytes)
	copy(out, mac[:])
	return out
}

// Verify implements Auth. Only the MAC is compared; the padding
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

// SigBytes implements Auth.
func (a *SimAuth) SigBytes() int { return a.sigBytes }
