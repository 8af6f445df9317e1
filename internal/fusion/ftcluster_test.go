package fusion

import (
	"math"
	"testing"
	"testing/quick"

	"innercircle/internal/sim"
)

func TestFig5OutlierRemoved(t *testing.T) {
	// The Fig. 5 scenario: three observations near the true value Θ ≈ (1,1)
	// and one stuck-at-high outlier p4 ≈ (4,4.5) from a damaged sensor.
	points := []Vec{
		V2(0.4, 1.6), // p1
		V2(0.3, 0.2), // p2
		V2(1.9, 0.6), // p3
		V2(4.0, 4.5), // p4, faulty
	}
	res, err := FTCluster(points, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 || res.Removed[0] != 3 {
		t.Fatalf("Removed = %v, want [3] (the stuck-at-high point)", res.Removed)
	}
	want, err := Centroid(points[:3])
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Dist(want) > 1e-9 {
		t.Fatalf("Estimate = %v, want centroid of correct points %v", res.Estimate, want)
	}
	// The naive all-points centroid is much worse.
	naive, err := Centroid(points)
	if err != nil {
		t.Fatal(err)
	}
	theta := V2(1, 1)
	if res.Estimate.Dist(theta) >= naive.Dist(theta) {
		t.Fatal("FT-cluster estimate is not better than the naive centroid")
	}
}

func TestNoRemovalWhenAllCorrect(t *testing.T) {
	points := []Vec{V2(1, 1), V2(1.2, 0.9), V2(0.8, 1.1), V2(1.05, 1.02)}
	res, err := FTCluster(points, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 0 {
		t.Fatalf("Removed = %v, want none (all points within eta)", res.Removed)
	}
	if len(res.Kept) != 4 {
		t.Fatalf("Kept = %v, want all 4", res.Kept)
	}
}

func TestStopsAtTwoPoints(t *testing.T) {
	// Pathological input: points spread far apart with a tiny threshold.
	// The |C| > 2 guard must keep at least two points.
	points := []Vec{V1(0), V1(100), V1(200), V1(300)}
	res, err := FTCluster(points, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) < 2 {
		t.Fatalf("Kept %d points, the |C|>2 guard requires >= 2", len(res.Kept))
	}
}

func TestSinglePointAndPair(t *testing.T) {
	res, err := FTCluster([]Vec{V1(5)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate[0] != 5 || len(res.Kept) != 1 {
		t.Fatalf("single point: %+v", res)
	}
	// Two points: guard prevents any removal regardless of distance.
	res, err = FTCluster([]Vec{V1(0), V1(1000)}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 0 {
		t.Fatalf("pair: removed %v, want none", res.Removed)
	}
	if math.Abs(res.Estimate[0]-500) > 1e-9 {
		t.Fatalf("pair estimate = %v, want 500", res.Estimate)
	}
}

func TestMultipleOutliersRemovedFarthestFirst(t *testing.T) {
	points := []Vec{
		V1(1), V1(1.1), V1(0.9), V1(1.05), V1(0.95), // correct cluster at ~1
		V1(50), V1(80), // two faulty
	}
	res, err := FTCluster(points, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 2 {
		t.Fatalf("Removed = %v, want both outliers", res.Removed)
	}
	if res.Removed[0] != 6 {
		t.Fatalf("first removal = index %d, want 6 (the farthest, at 80)", res.Removed[0])
	}
	if res.Removed[1] != 5 {
		t.Fatalf("second removal = index %d, want 5", res.Removed[1])
	}
	if math.Abs(res.Estimate[0]-1.0) > 0.1 {
		t.Fatalf("estimate = %v, want ~1.0", res.Estimate[0])
	}
}

func TestErrors(t *testing.T) {
	if _, err := FTCluster(nil, 1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := FTCluster([]Vec{V1(1)}, -1); err == nil {
		t.Error("negative eta accepted")
	}
	if _, err := FTCluster([]Vec{V1(1), V2(1, 2)}, 1); err == nil {
		t.Error("mixed dimensions accepted")
	}
}

// Property (§4.3 result 1): with F < N/2 faulty points placed farther than
// δC/(1−2F/N) from the correct centroid, FT-cluster removes only faulty
// points.
func TestPropertyOnlyFaultyRemoved(t *testing.T) {
	rng := sim.NewRNG(42)
	f := func(nRaw, fRaw uint8, spread uint8) bool {
		n := 6 + int(nRaw%10)       // 6..15 total, matching inner-circle sizes
		numF := int(fRaw) % (n / 2) // F < N/2
		correct := n - numF
		// Correct points: uniform in a ball of radius deltaC around theta.
		theta := V2(rng.Uniform(-10, 10), rng.Uniform(-10, 10))
		deltaC := 1.0
		points := make([]Vec, 0, n)
		for i := 0; i < correct; i++ {
			ang := rng.Uniform(0, 2*math.Pi)
			r := rng.Uniform(0, deltaC)
			points = append(points, V2(theta[0]+r*math.Cos(ang), theta[1]+r*math.Sin(ang)))
		}
		// Faulty points: far beyond the separation bound.
		sep := WorstCaseRemovalSeparation(numF, n)
		far := deltaC*sep*3 + float64(spread)
		for i := 0; i < numF; i++ {
			ang := rng.Uniform(0, 2*math.Pi)
			points = append(points, V2(theta[0]+far*math.Cos(ang), theta[1]+far*math.Sin(ang)))
		}
		// eta: two correct observations are at most 2·deltaC apart.
		res, err := FTCluster(points, 2*deltaC)
		if err != nil {
			return false
		}
		for _, idx := range res.Removed {
			if idx < correct {
				return false // a correct point was removed
			}
		}
		// All faulty points must be gone.
		for _, idx := range res.Kept {
			if idx >= correct {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property (§4.3 result 2): colluding faulty points that stay *inside* the
// removal bound add at most E* = (F/N)·δF* of estimation error.
func TestPropertyWorstCaseErrorBound(t *testing.T) {
	rng := sim.NewRNG(43)
	f := func(nRaw, fRaw uint8) bool {
		n := 9 + int(nRaw%7) // 9..15
		numF := 1 + int(fRaw)%(n/3)
		correct := n - numF
		theta := V2(0, 0)
		deltaC := 1.0
		points := make([]Vec, 0, n)
		maxDC := 0.0
		for i := 0; i < correct; i++ {
			ang := rng.Uniform(0, 2*math.Pi)
			r := rng.Uniform(0.5, deltaC)
			p := V2(r*math.Cos(ang), r*math.Sin(ang))
			points = append(points, p)
			if d := p.Dist(theta); d > maxDC {
				maxDC = d
			}
		}
		correctCentroid, err := Centroid(points)
		if err != nil {
			return false
		}
		// Adversary: all faulty points collude at distance δF* from the
		// correct centroid (the §4.3 worst case: stay just inside the
		// removal radius so the algorithm keeps them, maximizing the pull
		// on the centroid without being excluded).
		deltaFStar := maxDC / (1 - 2*float64(numF)/float64(n))
		adv := V2(correctCentroid[0]+deltaFStar*0.999, correctCentroid[1])
		for i := 0; i < numF; i++ {
			points = append(points, adv.Clone())
		}
		// η is a free parameter; the adversary's strategy targets whatever
		// η is in force. Model the evasion case by choosing η above the
		// adversary's leave-one-out distance, so nothing is removed.
		res, err := FTCluster(points, 2*deltaFStar)
		if err != nil {
			return false
		}
		if len(res.Removed) != 0 {
			return false // by construction the adversary evades removal
		}
		eStar := WorstCaseError(numF, n, maxDC)
		return res.Estimate.Dist(correctCentroid) <= eStar*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestOneThirdFaultyCase verifies the paper's worked example: F = N/3
// yields δF* = 3δC and E* = δC, i.e. the estimate stays within the range of
// the correct observations.
func TestOneThirdFaultyCase(t *testing.T) {
	const n, f = 9, 3
	deltaC := 2.5
	sep := WorstCaseRemovalSeparation(f, n)
	if math.Abs(sep-3.0) > 1e-9 {
		t.Fatalf("separation = %v, want 3 (δF* = 3δC)", sep)
	}
	if got := WorstCaseError(f, n, deltaC); math.Abs(got-deltaC) > 1e-9 {
		t.Fatalf("E* = %v, want δC = %v", got, deltaC)
	}
}

func TestWorstCaseBoundsDegenerate(t *testing.T) {
	if WorstCaseError(3, 6, 1) != 0 {
		t.Error("F >= N/2 should yield 0 (no guarantee)")
	}
	if WorstCaseRemovalSeparation(0, 0) != 0 {
		t.Error("n = 0 should yield 0")
	}
	if got := WorstCaseError(0, 10, 5); got != 0 {
		t.Errorf("no faults should yield 0 error, got %v", got)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two symmetric outliers equidistant from the core: removal order must
	// be deterministic across runs.
	points := []Vec{V1(0), V1(0), V1(0), V1(-50), V1(50)}
	r1, err := FTCluster(points, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r2, err := FTCluster(points, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Removed) != len(r2.Removed) {
			t.Fatal("nondeterministic removal count")
		}
		for j := range r1.Removed {
			if r1.Removed[j] != r2.Removed[j] {
				t.Fatal("nondeterministic removal order")
			}
		}
	}
}

// TestFTClusterAllocs pins FTCluster's allocations to a count independent
// of the number of points when nothing is removed: every leave-one-out
// centroid is built in one scratch vector, so 21 points cost what 4 do.
func TestFTClusterAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		points := make([]Vec, n)
		for i := range points {
			points[i] = V2(1+0.01*float64(i%5), 1-0.01*float64(i%3))
		}
		return testing.AllocsPerRun(100, func() {
			if res, err := FTCluster(points, 1); err != nil || len(res.Removed) != 0 {
				t.Fatalf("FTCluster over %d close points: removed %v, err %v", n, res.Removed, err)
			}
		})
	}
	if four, many := allocs(4), allocs(21); four != many {
		t.Fatalf("FTCluster allocates %v times for 4 points and %v for 21, want the same", four, many)
	}
}
