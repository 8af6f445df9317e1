package sim

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// diffSeeds are the seeds the differential tests and the fuzz corpus share:
// the ones math/rand's Seed treats specially (0 and multiples of 2³¹−1 are
// replaced by 89482311; negatives are shifted up) and ordinary ones either
// side of the 31-bit reduction.
var diffSeeds = []int64{0, 1, -1, 1<<31 - 1, 1<<31 - 2, 89482311, 1 << 40, -(1 << 40), 7919}

// diffDraws skips pre source draws, then makes calls calls chosen by mix
// (cycled) on a stream and on rand.New(rand.NewSource(seed)), failing at the
// first result that differs. The calls consume one to a dozen source draws
// each, so varying pre walks the multi-draw calls across the hand-over at
// draw 274.
func diffDraws(t *testing.T, seed int64, pre, calls int, mix []byte) {
	t.Helper()
	got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
	if len(mix) == 0 {
		mix = []byte{0}
	}
	for i := 0; i < pre; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: draw %d: Int63 = %d, math/rand %d", seed, i+1, g, w)
		}
	}
	for i := 0; i < calls; i++ {
		var g, w any
		switch op := mix[i%len(mix)] % 8; op {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.src().Uint64(), want.Uint64()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			n := 1 + i%1000
			g, w = got.Intn(n), want.Intn(n)
		case 4:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 5:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 6:
			g, w = permDigest(got.Perm(5)), permDigest(want.Perm(5))
		case 7:
			a, b := [7]int{0, 1, 2, 3, 4, 5, 6}, [7]int{0, 1, 2, 3, 4, 5, 6}
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			g, w = a, b
		}
		if g != w {
			t.Fatalf("seed %d, %d draws skipped: call %d (op %d) = %v, math/rand %v",
				seed, pre, i, mix[i%len(mix)]%8, g, w)
		}
	}
}

// permDigest packs a short permutation into one comparable value.
func permDigest(p []int) (d int) {
	for _, v := range p {
		d = d*16 + v
	}
	return d
}

var diffMix = []byte{0, 1, 2, 3, 4, 5, 6, 7}

// TestLazySourceMatchesMathRand: every kind of draw the simulator makes, on
// every special seed, equals math/rand's — before, across and after the
// hand-over to the real generator, with the hand-over landing at every
// position inside the multi-draw calls.
func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range diffSeeds {
		diffDraws(t, seed, 0, 2000, diffMix)
		for pre := lagTap - 16; pre <= lagTap+1; pre++ {
			diffDraws(t, seed, pre, 40, []byte{6, 7, 4, 2})
		}
	}
}

// TestLazySourceReseed: rand.Rand.Seed on the wrapper restarts the stream,
// whether it is still computing draws from the seed or has handed over.
func TestLazySourceReseed(t *testing.T) {
	for _, before := range []int{0, 10, lagTap, lagTap + 1, 700} {
		g := NewRNG(5)
		for i := 0; i < before; i++ {
			g.Int63()
		}
		g.src().Seed(9)
		want := rand.New(rand.NewSource(9))
		for i := 0; i < 600; i++ {
			if a, b := g.Int63(), want.Int63(); a != b {
				t.Fatalf("reseed after %d draws: draw %d = %d, math/rand %d", before, i+1, a, b)
			}
		}
	}
}

// TestCookedTableHoldsForOtherSeeds: the additive table recovered at init
// from one seed's output must explain every seeded word of other seeds. If
// the installed math/rand ever changes its table, its seeding recurrence or
// its lags, this fails before any result digest does.
func TestCookedTableHoldsForOtherSeeds(t *testing.T) {
	for _, seed := range diffSeeds {
		if seed == cookedProbeSeed {
			continue
		}
		vec, x0 := seededWords(seed), lehmerStart(seed)
		for i := range vec {
			if want := seededWord(x0, i); vec[i] != want {
				t.Fatalf("seed %d: seeded word %d is %#x, table predicts %#x", seed, i, vec[i], want)
			}
		}
	}
}

// TestYoungStreamHoldsNoGenerator: a source materialises math/rand's
// generator at draw 274 and not before.
func TestYoungStreamHoldsNoGenerator(t *testing.T) {
	ls := &lazySource{x0: lehmerStart(3)}
	for i := 0; i < lagTap; i++ {
		ls.Uint64()
	}
	if ls.full != nil {
		t.Fatalf("generator materialised within the first %d draws", lagTap)
	}
	ls.Uint64()
	if ls.full == nil {
		t.Fatalf("draw %d did not hand over to math/rand's generator", lagTap+1)
	}
}

// TestSplitSeedsMatchFNV pins the inline hash to hash/fnv: child seeds are
// part of every result digest.
func TestSplitSeedsMatchFNV(t *testing.T) {
	ref := func(seed int64, label string, n int, withN bool) int64 {
		h := fnv.New64a()
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(uint64(seed) >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(label))
		if withN {
			for i := range buf {
				buf[i] = byte(uint64(n) >> (8 * i))
			}
			h.Write(buf[:])
		}
		return int64(h.Sum64())
	}
	for _, seed := range []int64{0, 1, -1, 42, -(1 << 40), 1<<63 - 1, -1 << 63} {
		g := NewRNG(seed)
		for _, label := range []string{"", "mac", "node", "mobility/waypoint", "nœud-ß", "節點"} {
			if got, want := g.Split(label).Seed(), ref(seed, label, 0, false); got != want {
				t.Errorf("seed %d Split(%q) = %d, hash/fnv %d", seed, label, got, want)
			}
			for _, n := range []int{0, 1, 255, 256, 3999, -1} {
				if got, want := g.SplitN(label, n).Seed(), ref(seed, label, n, true); got != want {
					t.Errorf("seed %d SplitN(%q, %d) = %d, hash/fnv %d", seed, label, n, got, want)
				}
			}
		}
	}
	g := NewRNG(7)
	if a := testing.AllocsPerRun(100, func() { sinkRNG = g.Split("mobility") }); a > 1 {
		t.Errorf("Split allocates %v times, want at most 1 (the child)", a)
	}
	if a := testing.AllocsPerRun(100, func() { sinkRNG = g.SplitN("node", 17) }); a > 1 {
		t.Errorf("SplitN allocates %v times, want at most 1 (the child)", a)
	}
}

var (
	sinkRNG *RNG
	sinkInt int64
)

// FuzzRNGDifferential lets the fuzzer pick the seed, how far into the stream
// the mixed calls start and which calls they are.
func FuzzRNGDifferential(f *testing.F) {
	for _, seed := range diffSeeds {
		f.Add(seed, uint16(0), diffMix)
		f.Add(seed, uint16(lagTap-3), []byte{6, 7, 4, 2})
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, mix []byte) {
		diffDraws(t, seed, int(draws)%1024, 400, mix)
	})
}

// BenchmarkRNGFirstDraw is what most streams of a static field cost: a new
// stream and one draw (4.9 KB/op when the first draw seeded a generator).
func BenchmarkRNGFirstDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt = NewRNG(int64(i)).Int63()
	}
}

// BenchmarkRNGDraw300 is the hand-over path: a new stream drawn past 273.
func BenchmarkRNGDraw300(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewRNG(int64(i))
		for j := 0; j < 300; j++ {
			sinkInt = g.Int63()
		}
	}
}
