package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitIsIndependentOfParentDraws(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	// Drain some draws from a only; children must still match.
	for i := 0; i < 10; i++ {
		a.Float64()
	}
	ca := a.Split("mac")
	cb := b.Split("mac")
	for i := 0; i < 50; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestSplitLabelsDiffer(t *testing.T) {
	g := NewRNG(7)
	x := g.Split("radio").Float64()
	y := g.Split("mobility").Float64()
	if x == y {
		t.Fatal("different labels produced identical first draws (suspicious)")
	}
}

func TestSplitNDiffersByIndex(t *testing.T) {
	g := NewRNG(7)
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		s := g.SplitN("node", i).Seed()
		if seen[s] {
			t.Fatalf("SplitN seed collision at index %d", i)
		}
		seen[s] = true
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	f := func(a, b uint8) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := g.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Normal(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("mean = %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		j := g.Jitter(0.25)
		if j < 0 || j >= 0.25 {
			t.Fatalf("jitter %v outside [0, 0.25)", j)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(5)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestRNGSeedsOnFirstDraw: a stream that is only split, or never drawn
// from, must not pay for a generator, and deferring the seeding must not
// move any draw.
func TestRNGSeedsOnFirstDraw(t *testing.T) {
	parent := NewRNG(99)
	child := parent.SplitN("node", 3)
	grand := child.Split("mobility")
	if parent.r != nil || child.r != nil || grand.r != nil {
		t.Fatal("splitting seeded a generator before any draw")
	}
	eager := rand.New(rand.NewSource(grand.Seed()))
	for i := 0; i < 1000; i++ {
		var got, want float64
		switch i % 3 {
		case 0:
			got, want = grand.Float64(), eager.Float64()
		case 1:
			got, want = float64(grand.Int63()), float64(eager.Int63())
		default:
			got, want = grand.NormFloat64(), eager.NormFloat64()
		}
		if got != want {
			t.Fatalf("draw %d: lazy stream %v, eagerly seeded stream %v", i, got, want)
		}
	}
	if parent.r != nil || child.r != nil {
		t.Fatal("drawing from a child seeded its ancestors")
	}
}
