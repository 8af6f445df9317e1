package sim

import "math/rand"

// math/rand's seeded source is an additive lagged-Fibonacci generator over
// 607 words with tap 273: draw k returns vec[feed]+vec[tap] and stores it at
// feed, both indices stepping down from 334 and 607. Its first 273 draws
// therefore read only words that seeding wrote — draw k is
// vec₀[334−k] + vec₀[607−k] — and each seeded word is a fixed constant XORed
// with three consecutive values of the Lehmer sequence xⱼ = 48271ʲ·x₀ mod
// 2³¹−1, which a power table reaches in O(1). lazySource serves those draws
// from the seed alone and never duplicates the generator's steady state: at
// draw 274 it hands over to a real rand.NewSource advanced past the draws
// already served.
const (
	lagLen     = 607
	lagTap     = 273
	lagFeed    = lagLen - lagTap // 334
	lehmerA    = 48271
	lehmerM    = 1<<31 - 1
	lehmerA3   = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM
	lehmerWarm = 21 // seeding discards 20 values, then uses three per word
)

// lagPow[i] is 48271^(21+3i) mod 2³¹−1, the jump from the normalised seed to
// the first of word i's three Lehmer values. lagCooked[i] is the constant
// math/rand XORs into seeded word i. Both are filled by init and read-only
// afterwards, so every kernel of a replica pool may share them.
var (
	lagPow    [lagLen]uint32
	lagCooked [lagLen]uint64
)

// cookedProbeSeed is the seed whose output lagCooked is recovered from; any
// seed would do (TestCookedTableHoldsForOtherSeeds checks others).
const cookedProbeSeed = 1

// init derives lagPow, then recovers math/rand's private additive table from
// the installed library's own output rather than vendoring its 607 constants.
func init() {
	p := uint64(1)
	for j := 0; j < lehmerWarm; j++ {
		p = p * lehmerA % lehmerM
	}
	for i := range lagPow {
		lagPow[i] = uint32(p)
		p = p * lehmerA3 % lehmerM
	}
	vec := seededWords(cookedProbeSeed)
	x0 := lehmerStart(cookedProbeSeed)
	for i := range lagCooked {
		lagCooked[i] = vec[i] ^ lehmerWord(x0, i)
	}
}

// seededWords returns the 607 words rand.NewSource(seed) starts from,
// worked out from its first 607 outputs o₁…o₆₀₇. Each draw of the first lap
// overwrites one word with its sum, so every seeded word falls out by
// subtraction: draws 335–607 and 274–334 each added a seeded word to the
// output of 273 draws earlier, and draws 1–273 added two seeded words, one
// of them just recovered.
func seededWords(seed int64) (vec [lagLen]uint64) {
	src := rand.NewSource(seed).(rand.Source64)
	var o [lagLen + 1]uint64
	for k := 1; k <= lagLen; k++ {
		o[k] = src.Uint64()
	}
	for k := lagFeed + 1; k <= lagLen; k++ {
		vec[lagLen+lagFeed-k] = o[k] - o[k-lagTap]
	}
	for k := lagTap + 1; k <= lagFeed; k++ {
		vec[lagFeed-k] = o[k] - o[k-lagTap]
	}
	for k := 1; k <= lagTap; k++ {
		vec[lagFeed-k] = o[k] - vec[lagLen-k]
	}
	return vec
}

// lehmerStart normalises a seed the way math/rand's Seed does: reduced into
// [1, 2³¹−2], with 0 replaced by a fixed constant.
func lehmerStart(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lehmerWord returns the seed-dependent part of seeded word i: three
// consecutive Lehmer values packed at bit offsets 40, 20 and 0 (the top one
// overflows 64 bits and wraps, as it does in math/rand).
func lehmerWord(x0 uint64, i int) uint64 {
	a := uint64(lagPow[i]) * x0 % lehmerM
	b := a * lehmerA % lehmerM
	c := b * lehmerA % lehmerM
	return a<<40 ^ b<<20 ^ c
}

// seededWord returns word i of the state rand.NewSource seeds from x0.
func seededWord(x0 uint64, i int) uint64 { return lagCooked[i] ^ lehmerWord(x0, i) }

// lazySource is a rand.Source64 whose output is rand.NewSource(seed)'s, bit
// for bit. It holds no generator state while young: x0, the normalised seed
// (itself a seed of the same stream), and the number of draws served. full is
// the real source once the stream has outlived the draws computable from x0.
type lazySource struct {
	x0    uint64
	drawn int
	full  rand.Source64
}

func (s *lazySource) Uint64() uint64 {
	if s.full != nil {
		return s.full.Uint64()
	}
	if s.drawn == lagTap {
		s.full = rand.NewSource(int64(s.x0)).(rand.Source64)
		for i := 0; i < lagTap; i++ {
			s.full.Uint64()
		}
		return s.full.Uint64()
	}
	s.drawn++
	return seededWord(s.x0, lagFeed-s.drawn) + seededWord(s.x0, lagLen-s.drawn)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seed restarts the stream from seed (rand.Rand.Seed calls it).
func (s *lazySource) Seed(seed int64) { *s = lazySource{x0: lehmerStart(seed)} }
