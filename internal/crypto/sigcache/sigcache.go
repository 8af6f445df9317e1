// Package sigcache provides a bounded, deterministic memo for signature
// verification verdicts. Verifying a threshold or RSA signature is a
// modular exponentiation; inside one replica the same (key, message,
// signature) triple is verified many times — every node checks the same
// flooded agreed message, every vote round re-checks the same value
// signatures — and verification is a pure function of that triple, so the
// verdict can be reused. The cache is an LRU over an exact key that
// includes the verifying key's identity and proactive-refresh epoch, so a
// refreshed key can never serve a stale verdict. It is the voting
// services' memo: signed STS beacons have their own (sts.Memo), which
// compares each sender's last valid bytes, cheaper than hashing them.
//
// The cache memoizes the *verdict only*. Simulation-side accounting
// (energy, delay) is charged by the caller unconditionally, so the memo
// never changes experiment tables — only wall-clock time.
//
// A cache instance is not safe for concurrent use. Replicas are
// single-threaded event loops and each replica owns its caches (one per
// shard, shared by the voting services on it; see node.Network), so no
// instance is ever reached from two goroutines.
package sigcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
)

// Kind namespaces cache keys by verification flavor.
type Kind uint8

const (
	// KindNSL is an individual signature's verdict: a statistical value
	// checked through the signer's sts.Auth (an RSA signature, or the
	// SimAuth stand-in's MAC).
	KindNSL Kind = iota + 1
	// KindThresh is a thresh GroupKey.Verify verdict (combined signature).
	KindThresh
	// KindPartial is a thresh VerifyPartial verdict (one partial).
	KindPartial
)

// Key identifies one verification exactly. Scope holds a comparable
// identity for the verifying key — the GroupKey interface value, or the
// signer's node ID for an individual signature (an ID names one key for
// a whole replica) — and Epoch its proactive-refresh epoch, so refreshing
// a key invalidates all of its entries without a sweep.
type Key struct {
	Kind  Kind
	Scope any
	Epoch uint64
	Sum   [32]byte
}

// Entry is a memoized verdict: the exact error the verification returned
// (nil for success).
type Entry struct {
	Err error
}

// HashParts digests the variable-length inputs of a verification
// (message, signature bytes) into a fixed key component. Parts are
// length-prefixed, so concatenation ambiguity cannot alias two
// verifications to one key. It runs once per memo lookup — per checked
// vote signature — so it must not allocate: the hash state is a local the
// compiler keeps on the stack, and the sum is written straight into the
// result (Sum(nil) would allocate it).
func HashParts(parts ...[]byte) [32]byte {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		_, _ = h.Write(n[:])
		_, _ = h.Write(p)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// DefaultCap bounds the memo; at a few hundred bytes per entry the
// default stays well under a megabyte per replica.
const DefaultCap = 1024

// Cache is a bounded LRU of verification verdicts.
type Cache struct {
	cap       int
	ll        *list.List
	m         map[Key]*list.Element
	evictions uint64
}

type lruItem struct {
	key   Key
	entry Entry
}

// New returns a cache bounded to capacity entries (DefaultCap if <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[Key]*list.Element)}
}

// Get returns the memoized verdict for k, marking it recently used.
func (c *Cache) Get(k Key) (Entry, bool) {
	el, ok := c.m[k]
	if !ok {
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// Put memoizes the verdict for k, evicting the least recently used entry
// when the cache is full.
func (c *Cache) Put(k Key, e Entry) {
	if el, ok := c.m[k]; ok {
		el.Value.(*lruItem).entry = e
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		back := c.ll.Back()
		if back != nil {
			c.ll.Remove(back)
			delete(c.m, back.Value.(*lruItem).key)
			c.evictions++
		}
	}
	c.m[k] = c.ll.PushFront(&lruItem{key: k, entry: e})
}

// Len reports the current entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.ll.Len()
}

// Evictions reports how many entries Put has dropped to stay within the
// capacity. While it reads zero, the memo has answered exactly as an
// unbounded one would.
func (c *Cache) Evictions() uint64 {
	if c == nil {
		return 0
	}
	return c.evictions
}
