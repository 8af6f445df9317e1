package sigcache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
)

func key(i int, epoch uint64) Key {
	return Key{Kind: KindNSL, Scope: "k", Epoch: epoch, Sum: HashParts([]byte(fmt.Sprintf("m%d", i)))}
}

func TestCacheHitMissAndVerdicts(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(key(1, 0)); ok {
		t.Fatal("hit on empty cache")
	}
	errBad := errors.New("bad")
	c.Put(key(1, 0), Entry{})
	c.Put(key(2, 0), Entry{Err: errBad})
	if e, ok := c.Get(key(1, 0)); !ok || e.Err != nil {
		t.Fatalf("want ok verdict, got ok=%v err=%v", ok, e.Err)
	}
	if e, ok := c.Get(key(2, 0)); !ok || !errors.Is(e.Err, errBad) {
		t.Fatalf("want memoized error, got ok=%v err=%v", ok, e.Err)
	}
	// Same message under a bumped epoch is a different key.
	if _, ok := c.Get(key(1, 1)); ok {
		t.Fatal("epoch bump must invalidate")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	c.Put(key(1, 0), Entry{})
	c.Put(key(2, 0), Entry{})
	c.Get(key(1, 0)) // 1 is now most recent
	c.Put(key(3, 0), Entry{})
	if _, ok := c.Get(key(2, 0)); ok {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if _, ok := c.Get(key(1, 0)); !ok {
		t.Fatal("recently used entry 1 evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	c.Put(key(1, 0), Entry{}) // an update of a held key evicts nothing
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	// A nil receiver (services built without a memo) has length zero and
	// has evicted nothing.
	var none *Cache
	if none.Len() != 0 || none.Evictions() != 0 {
		t.Fatal("nil cache Len or Evictions")
	}
}

func TestHashPartsLengthPrefixed(t *testing.T) {
	a := HashParts([]byte("ab"), []byte("c"))
	b := HashParts([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("length prefixing failed: concatenation aliases collide")
	}
}

// TestHashPartsFraming pins the key bytes: 8-byte big-endian length before
// each part, SHA-256 over the lot. Memo keys in vote, sts and scripts/bench
// are built from it, so the framing is a format.
func TestHashPartsFraming(t *testing.T) {
	got := HashParts([]byte("digest"), nil, []byte{0xff})
	want := sha256.Sum256([]byte("\x00\x00\x00\x00\x00\x00\x00\x06digest" +
		"\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x01\xff"))
	if got != want {
		t.Fatalf("HashParts = %x, want %x", got, want)
	}
}

var sumSink [32]byte

func TestHashPartsDoesNotAllocate(t *testing.T) {
	dig, sig := make([]byte, 96), make([]byte, 64)
	if n := testing.AllocsPerRun(100, func() { sumSink = HashParts(dig, sig) }); n != 0 {
		t.Fatalf("HashParts allocates %.0f times per call, want 0", n)
	}
}
