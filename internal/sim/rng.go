package sim

import "math/rand"

// RNG is a deterministic random-number stream. Every node and every
// simulation subsystem gets its own stream, split from the experiment seed
// by label, so that adding a random draw in one component does not perturb
// the sequence seen by another (a classic source of irreproducible
// simulations).
//
// A stream costs what it uses. Until its first draw it is a seed: many
// streams exist only to be split further (each node's parent stream) or are
// handed to a component that never draws (a static node's mobility stream).
// From the first draw it holds a math/rand Rand over a lazySource (see
// rng_source.go), about 100 bytes, which computes draws 1–273 of
// rand.NewSource(seed) directly from the seed — most streams of a static
// field stop well short of that. Only a stream that reaches draw 274
// materialises math/rand's own 4.9 KB generator, seeded as usual and
// advanced past the draws already served.
//
// Outputs are math/rand's by construction — everything above the source
// (Float64, Intn, NormFloat64, Perm, Shuffle, …) is math/rand's code, the
// steady-state generator is math/rand's, and the only thing reproduced here
// is the seeding formula, whose private constant table is recovered from
// the installed library at start-up — and by test:
// TestLazySourceMatchesMathRand and FuzzRNGDifferential compare mixed call
// sequences against rand.New(rand.NewSource(seed)) across the hand-over.
type RNG struct {
	seed int64
	r    *rand.Rand // nil until the first draw
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// src returns the stream's generator, creating it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(&lazySource{x0: lehmerStart(g.seed)})
	}
	return g.r
}

// Seed returns the seed this stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// FNV-1a, 64-bit: the child-seed hash, computed inline so a split allocates
// nothing but the child (TestSplitSeedsMatchFNV pins it to hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds v's eight bytes, least significant first, into h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return h
}

// splitHash hashes the parent seed followed by the label's bytes.
func (g *RNG) splitHash(label string) uint64 {
	h := fnvWord(fnvOffset64, uint64(g.seed))
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * fnvPrime64
	}
	return h
}

// Split derives an independent child stream identified by label. Splitting
// is deterministic: the same parent seed and label always yield the same
// child stream, regardless of how many draws the parent has made.
func (g *RNG) Split(label string) *RNG {
	return NewRNG(int64(g.splitHash(label)))
}

// SplitN derives a child stream identified by label and an index, for
// per-node streams.
func (g *RNG) SplitN(label string, n int) *RNG {
	return NewRNG(int64(fnvWord(g.splitHash(label), uint64(n))))
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + float64((hi-lo)*g.src().Float64()) }

// Intn returns a uniform draw in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Int63 returns a non-negative 63-bit integer draw.
func (g *RNG) Int63() int64 { return g.src().Int63() }

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.src().NormFloat64() }

// Normal returns a normal draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + float64(stddev*g.src().NormFloat64())
}

// ExpFloat64 returns an exponential draw with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.src().ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.src().Shuffle(n, swap) }

// Jitter returns a uniform draw in [0, max), used to desynchronize periodic
// protocol timers across nodes.
func (g *RNG) Jitter(max Duration) Duration {
	return Duration(g.Uniform(0, float64(max)))
}

// Read fills p from the stream, so a stream serves as an io.Reader.
func (g *RNG) Read(p []byte) (int, error) { return g.src().Read(p) }
