package thresh

import (
	"math/big"

	"innercircle/internal/crypto/mont"
)

// montCtx is the key's Montgomery context (package mont) with what is
// specific to Shoup's combination step on top: big.Int conversion through
// a pooled scratch arena and the interleaved multi-base exponent chain.
// math/big's Exp rebuilds its Montgomery state on every call, which
// dominates the cost of the many small-exponent exponentiations of a
// combination; deal time pays that setup once, and Combine/Verify then run
// chains whose per-step cost is one Mul. The context is immutable, so
// concurrent Combine/Verify calls share it.
type montCtx struct{ *mont.Ctx }

func newMontCtx(n *big.Int) montCtx { return montCtx{mont.New(n)} }

// toInt converts a limb slice back into dst. The limbs are copied — dst
// must never alias the scratch arena, because pooled scratch is zeroed and
// reused by later calls.
func toInt(dst *big.Int, x []big.Word) *big.Int {
	n := len(x)
	for n > 0 && x[n-1] == 0 {
		n--
	}
	buf := dst.Bits()
	if cap(buf) < n {
		buf = make([]big.Word, n)
	}
	buf = buf[:n]
	copy(buf, x[:n])
	return dst.SetBits(buf)
}

// montScratch is the working set of one combination/verification: fixed-
// width limb buffers recycled via the combine scratch pool.
type montScratch struct {
	t        []big.Word // CIOS accumulator, k+2
	a, b     []big.Word // expChain ping-pong buffers
	baseMem  []big.Word // arena backing the alloc'd operand slots
	baseNext int
}

func (ms *montScratch) reset(k int) {
	if cap(ms.t) < k+2 {
		ms.t = make([]big.Word, k+2)
	}
	ms.t = ms.t[:k+2]
	if cap(ms.a) < k {
		ms.a = make([]big.Word, k)
	}
	if cap(ms.b) < k {
		ms.b = make([]big.Word, k)
	}
	ms.a, ms.b = ms.a[:k], ms.b[:k]
	ms.baseNext = 0
}

// alloc hands out one zeroed fixed-width slot from the scratch arena,
// growing it on demand. Growth leaves previously returned slots valid —
// they keep referencing the old backing array.
func (ms *montScratch) alloc(k int) []big.Word {
	if ms.baseNext+k > len(ms.baseMem) {
		n := 16 * k
		if n < 2*len(ms.baseMem) {
			n = 2 * len(ms.baseMem)
		}
		ms.baseMem = make([]big.Word, n)
		ms.baseNext = 0
	}
	buf := ms.baseMem[ms.baseNext : ms.baseNext+k]
	ms.baseNext += k
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// toMont converts v (reduced below N) into Montgomery form in a fresh
// arena slot.
func (c montCtx) toMont(ms *montScratch, v *big.Int) []big.Word {
	out := ms.alloc(c.K())
	tmp := ms.alloc(c.K())
	copy(tmp, v.Bits())
	c.ToMont(out, tmp, ms.t)
	return out
}

// fromMont converts x out of Montgomery form into dst (which aliases arena
// storage afterwards; see toInt).
func (c montCtx) fromMont(ms *montScratch, dst *big.Int, x []big.Word) *big.Int {
	tmp := ms.alloc(c.K())
	c.FromMont(tmp, x, ms.t)
	return toInt(dst, tmp)
}

// expChain computes dst = Π bases[i]^exps[i] (Montgomery domain, exps
// non-negative) with one interleaved square-and-multiply chain: one
// squaring per bit position shared by every base, one multiply per set
// exponent bit. While the accumulator is still 1, squarings are skipped
// and the first multiplication becomes a copy, so the leading-bit work of
// every chain is free. dst must be an arena slot distinct from all bases.
func (c montCtx) expChain(ms *montScratch, dst []big.Word, bases [][]big.Word, exps []*big.Int) {
	maxBits := 0
	for _, e := range exps {
		if e.BitLen() > maxBits {
			maxBits = e.BitLen()
		}
	}
	acc, spare := ms.a[:c.K()], ms.b[:c.K()]
	accOne := true
	for bit := maxBits - 1; bit >= 0; bit-- {
		if !accOne {
			c.Mul(spare, acc, acc, ms.t)
			acc, spare = spare, acc
		}
		for i, e := range exps {
			if e.Bit(bit) == 1 {
				if accOne {
					copy(acc, bases[i])
					accOne = false
					continue
				}
				c.Mul(spare, acc, bases[i], ms.t)
				acc, spare = spare, acc
			}
		}
	}
	if accOne {
		copy(acc, c.One())
	}
	copy(dst, acc)
	ms.a, ms.b = acc, spare
}
