package link

import (
	"cmp"
	"slices"
)

// SeenSet is an exact set of (source, seq) pairs: the duplicate filter of
// every protocol that numbers its messages per source (flood data in
// diffusion, route requests in AODV, agreed messages in vote). Per source
// it keeps a bitset of the seqs seen, the sources sorted and found by
// bisection, so a lookup costs a few comparisons and no hashing, and a
// repeat — what most receptions are — allocates nothing. The zero value is
// empty and holds no memory until the first Mark.
//
// Honest seqs count a source's messages from zero or one, so the bitsets
// are dense. Seqs arrive from the wire, though, and one forged huge seq
// must not buy memory in proportion to its value: a bitset stops at
// seenDenseWords words (2²⁰ seqs, more than a source sends in the
// experiments' runs), and the pairs beyond it go to a small sorted
// overflow list, one entry per pair marked. Verdicts stay exact on both
// sides of the cap.
type SeenSet struct {
	srcs []seenSource
	far  []seenPair // sorted by (src, seq)
}

// seenDenseWords caps one source's bitset: 2¹⁴ words, 128 KiB, seqs below
// 2²⁰.
const seenDenseWords = 1 << 14

type seenSource struct {
	src  NodeID
	bits []uint64 // bit seq%64 of word seq/64 is set once seq was seen
}

type seenPair struct {
	src NodeID
	seq uint64
}

func comparePairs(a, b seenPair) int {
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// find returns the index of src's bitset, or where it would be inserted.
func (s *SeenSet) find(src NodeID) (int, bool) {
	// Bisection by hand: slices.BinarySearchFunc's comparator is an
	// indirect call per step, on a line every reception runs.
	i, j := 0, len(s.srcs)
	for i < j {
		if h := int(uint(i+j) >> 1); s.srcs[h].src < src {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(s.srcs) && s.srcs[i].src == src
}

// Has reports whether (src, seq) was marked.
func (s *SeenSet) Has(src NodeID, seq uint64) bool {
	w := seq / 64
	if w >= seenDenseWords {
		_, found := slices.BinarySearchFunc(s.far, seenPair{src, seq}, comparePairs)
		return found
	}
	i, ok := s.find(src)
	return ok && w < uint64(len(s.srcs[i].bits)) && s.srcs[i].bits[w]&(1<<(seq%64)) != 0
}

// Mark records (src, seq) and reports whether it was new.
func (s *SeenSet) Mark(src NodeID, seq uint64) bool {
	w := seq / 64
	if w >= seenDenseWords {
		p := seenPair{src, seq}
		j, found := slices.BinarySearchFunc(s.far, p, comparePairs)
		if !found {
			s.far = slices.Insert(s.far, j, p)
		}
		return !found
	}
	i, ok := s.find(src)
	if !ok {
		s.srcs = slices.Insert(s.srcs, i, seenSource{src: src})
	}
	e := &s.srcs[i]
	if w >= uint64(len(e.bits)) {
		e.bits = append(e.bits, make([]uint64, w+1-uint64(len(e.bits)))...)
	}
	bit := uint64(1) << (seq % 64)
	if e.bits[w]&bit != 0 {
		return false
	}
	e.bits[w] |= bit
	return true
}
