package link

import (
	"cmp"
	"encoding/binary"
	"math"
	mrand "math/rand"
	"slices"
	"testing"
)

// TestSeenSetRepeatDoesNotAllocate: the zero value holds no memory, and
// re-marking a pair already seen — most receptions of a flood, a route
// request or an agreed message — allocates nothing.
func TestSeenSetRepeatDoesNotAllocate(t *testing.T) {
	var s SeenSet
	if s.Has(70, 130) || s.srcs != nil {
		t.Fatal("zero SeenSet is not empty")
	}
	if !s.Mark(70, 130) || !s.Mark(70, math.MaxUint64) {
		t.Fatal("first marks reported as repeats")
	}
	for _, seq := range []uint64{130, math.MaxUint64} {
		fresh := true
		if n := testing.AllocsPerRun(100, func() { fresh = s.Mark(70, seq) }); n != 0 || fresh {
			t.Errorf("repeat mark of seq %d: %.0f allocations (want 0), new = %v", seq, n, fresh)
		}
	}
}

// TestSeenSetHugeSeqBounded: a forged seq — a RREQ ID of 2³²−1, a flood seq
// of 2⁶⁴−1 — costs one overflow entry, not a bitset reaching up to it, and
// the verdicts stay exact on both sides of the dense cap.
func TestSeenSetHugeSeqBounded(t *testing.T) {
	var s SeenSet
	last := uint64(seenDenseWords*64 - 1)
	for _, seq := range []uint64{math.MaxUint32, math.MaxUint64, last + 1, last, 5} {
		if !s.Mark(3, seq) {
			t.Fatalf("seq %d: first mark reported as a repeat", seq)
		}
	}
	if len(s.srcs) != 1 || len(s.srcs[0].bits) != seenDenseWords || len(s.far) != 3 {
		t.Fatalf("%d sources, %d bitset words and %d overflow pairs, want 1, %d and 3", len(s.srcs), len(s.srcs[0].bits), len(s.far), seenDenseWords)
	}
	for _, seq := range []uint64{5, last, last + 1, math.MaxUint32, math.MaxUint64} {
		if !s.Has(3, seq) || s.Mark(3, seq) {
			t.Errorf("seq %d: not remembered", seq)
		}
	}
	for _, seq := range []uint64{4, last - 1, last + 2, math.MaxUint32 - 1, math.MaxUint64 - 1} {
		if s.Has(3, seq) || s.Has(4, seq) {
			t.Errorf("seq %d: reported without a mark", seq)
		}
	}
}

// A seen-set script is a sequence of stepBytes-byte steps: an op byte, a
// 24-bit source reduced below scriptIDs (experiment's maxNodes), and a
// 64-bit seq, big-endian. Op bit 0 set asks Has, clear calls Mark; op bit
// 1 clear reduces the seq into the dense range and a little past it, set
// keeps all 64 bits. Steps past maxSteps are ignored: every overflow mark
// is an insertion into a sorted slice, so a megabyte of random seqs would
// spend the fuzzer's time moving memory.
const (
	stepBytes = 12
	maxSteps  = 1 << 12
	scriptIDs = 1 << 20
	nearCap   = seenDenseWords*64 + 256
	// scriptWords bounds the bitset words a script commits (the sum over
	// sources of the largest dense word marked); marks past it are skipped,
	// so a fuzzer's random seqs cannot make every input megabytes.
	scriptWords = 2 * seenDenseWords
)

func encodeStep(query, wide bool, src NodeID, seq uint64) []byte {
	op := byte(0)
	if query {
		op |= 1
	}
	if wide {
		op |= 2
	}
	b := []byte{op, byte(src >> 16), byte(src >> 8), byte(src)}
	return binary.BigEndian.AppendUint64(b, seq)
}

// runSeenScript replays script on one SeenSet and checks every verdict
// against a map of the pairs marked, then checks that the memory held is
// what the marks require: a bitset per source with a seq below the cap,
// exactly as long as its largest such seq needs, and one overflow entry per
// pair beyond the cap.
func runSeenScript(t *testing.T, script []byte) {
	var s SeenSet
	ref := map[[2]uint64]bool{}
	words := map[NodeID]int{}
	far := 0
	committed := 0
	script = script[:min(len(script), maxSteps*stepBytes)]
	for i := 0; i+stepBytes <= len(script); i += stepBytes {
		b := script[i : i+stepBytes]
		src := NodeID(uint32(b[1])<<16|uint32(b[2])<<8|uint32(b[3])) % scriptIDs
		seq := binary.BigEndian.Uint64(b[4:])
		if b[0]&2 == 0 {
			seq %= nearCap
		}
		key := [2]uint64{uint64(src), seq}
		if b[0]&1 == 1 {
			if got := s.Has(src, seq); got != ref[key] {
				t.Fatalf("step %d: Has(%d, %d) = %v, want %v", i/stepBytes, src, seq, got, ref[key])
			}
			continue
		}
		if w := seq / 64; w < seenDenseWords {
			if need := int(w) + 1; need > words[src] {
				if committed+need-words[src] > scriptWords {
					continue
				}
				committed += need - words[src]
				words[src] = need
			}
		} else if !ref[key] {
			far++
		}
		if got, want := s.Mark(src, seq), !ref[key]; got != want {
			t.Fatalf("step %d: Mark(%d, %d) = %v, want %v", i/stepBytes, src, seq, got, want)
		}
		ref[key] = true
	}
	if !slices.IsSortedFunc(s.srcs, func(a, b seenSource) int { return cmp.Compare(a.src, b.src) }) {
		t.Fatal("sources not sorted")
	}
	if len(s.srcs) != len(words) {
		t.Fatalf("%d bitsets, want %d", len(s.srcs), len(words))
	}
	for _, e := range s.srcs {
		if len(e.bits) != words[e.src] || cap(e.bits) > 2*seenDenseWords {
			t.Fatalf("source %d: bitset of %d words (cap %d), want %d", e.src, len(e.bits), cap(e.bits), words[e.src])
		}
	}
	if len(s.far) != far || !slices.IsSortedFunc(s.far, comparePairs) {
		t.Fatalf("%d overflow pairs (sorted %v), want %d", len(s.far), slices.IsSortedFunc(s.far, comparePairs), far)
	}
}

// floodScript is the shape of one node's receptions in a flood field: a
// dozen sources a few hops around it each send five messages, and every
// message arrives several times, from each neighbour that rebroadcasts
// it, interleaved with the other floods.
func floodScript() []byte {
	rng := mrand.New(mrand.NewSource(3))
	var steps [][]byte
	for src := range 12 {
		for seq := 1; seq <= 5; seq++ {
			for range 1 + rng.Intn(6) {
				steps = append(steps, encodeStep(false, false, NodeID(24+4*src), uint64(seq)))
			}
			steps = append(steps, encodeStep(true, false, NodeID(24+4*src), uint64(seq+1)))
		}
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return slices.Concat(steps...)
}

// FuzzFloodDedupDifferential checks the seen-set against a map reference
// on arbitrary scripts: out-of-order seqs, seqs past one bitset word, at
// and past the dense cap, up to 2⁶⁴−1, and sources up to maxNodes — and
// checks that the memory held stays what the marks require.
func FuzzFloodDedupDifferential(f *testing.F) {
	f.Add(floodScript())
	last := uint64(seenDenseWords*64 - 1)
	var edges []byte
	for _, s := range []struct {
		query, wide bool
		src         NodeID
		seq         uint64
	}{
		{false, false, 5, 200}, {false, false, 5, 3}, {false, false, 5, 200}, {false, false, 5, 64}, {false, false, 5, 63},
		{false, false, 5, 64}, {true, false, 5, 65}, {false, false, scriptIDs - 1, 999_999}, {false, false, 2, 0},
		{false, false, scriptIDs - 1, 999_999}, {true, true, 2, math.MaxUint64},
		{false, true, 7, last}, {false, true, 7, last + 1}, {true, true, 7, last + 2}, {false, true, 7, last + 1},
		{false, true, 9, math.MaxUint32}, {false, true, 9, math.MaxUint64}, {false, true, 9, math.MaxUint32},
		{true, true, 9, math.MaxUint64}, {false, true, 9, math.MaxUint64}, {true, true, 9, 1},
	} {
		edges = append(edges, encodeStep(s.query, s.wide, s.src, s.seq)...)
	}
	f.Add(edges)
	f.Fuzz(runSeenScript)
}
