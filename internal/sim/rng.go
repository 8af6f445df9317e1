package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random-number stream. Every node and every
// simulation subsystem gets its own stream, split from the experiment seed
// by label, so that adding a random draw in one component does not perturb
// the sequence seen by another (a classic source of irreproducible
// simulations).
//
// The generator behind a stream is seeded on its first draw: a math/rand
// source is 4.9 KB and its seeding is not free, and many streams exist only
// to be split further (each node's parent stream) or are handed to a
// component that never draws (a static node's mobility stream).
type RNG struct {
	seed int64
	r    *rand.Rand // nil until the first draw
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// src returns the stream's generator, seeding it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	}
	return g.r
}

// Seed returns the seed this stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Split derives an independent child stream identified by label. Splitting
// is deterministic: the same parent seed and label always yield the same
// child stream, regardless of how many draws the parent has made.
func (g *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(g.seed) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	return NewRNG(int64(h.Sum64()))
}

// SplitN derives a child stream identified by label and an index, for
// per-node streams.
func (g *RNG) SplitN(label string, n int) *RNG {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(g.seed) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	var nbuf [8]byte
	for i := 0; i < 8; i++ {
		nbuf[i] = byte(uint64(n) >> (8 * i))
	}
	_, _ = h.Write(nbuf[:])
	return NewRNG(int64(h.Sum64()))
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.src().Float64() }

// Intn returns a uniform draw in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Int63 returns a non-negative 63-bit integer draw.
func (g *RNG) Int63() int64 { return g.src().Int63() }

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.src().NormFloat64() }

// Normal returns a normal draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.src().NormFloat64()
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
