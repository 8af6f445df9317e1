package innercircle_test

import (
	"fmt"

	ic "innercircle"
)

// ExampleFTCluster reproduces the paper's Fig. 5 scenario: three
// consistent observations and one stuck-at-high outlier.
func ExampleFTCluster() {
	points := []ic.Vec{
		{0.4, 1.6},
		{0.3, 0.2},
		{1.9, 0.6},
		{4.0, 4.5}, // faulty sensor
	}
	res, err := ic.FTCluster(points, 2.0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("removed observation %d\n", res.Removed[0])
	fmt.Printf("estimate (%.2f, %.2f)\n", res.Estimate[0], res.Estimate[1])
	// Output:
	// removed observation 3
	// estimate (0.87, 0.80)
}

// ExampleFTMean shows the trimming-mean baseline: f lowest and f highest
// observations are always discarded.
func ExampleFTMean() {
	est, err := ic.FTMean([]ic.Vec{{1}, {2}, {3}, {4}, {100}}, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.0f\n", est[0])
	// Output:
	// 3
}

// ExampleDealRing deals per-level threshold keys and assembles a
// signature proving that L+1 = 3 nodes co-signed.
func ExampleDealRing() {
	ring, shares, err := ic.DealRing(ic.NewSimDealer([]byte("doc"), 128), 5, 10)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	const level = 2
	msg := []byte("target at (60, 40)")
	var partials []ic.Partial
	for node := 0; node <= level; node++ {
		p, err := shares[node][level].PartialSign(msg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		partials = append(partials, p)
	}
	sig, err := ring[level].Combine(msg, partials)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("verified:", ring[level].Verify(msg, sig) == nil)
	// Output:
	// verified: true
}

// ExampleRunGrid is the library entry point to the paper's sweeps: take a
// preset grid, adjust its fields, evaluate it. Here a cut-down Fig. 7 — 20
// nodes, 20 simulated seconds, no attackers against two, No IC against IC
// at L=1, one run per point.
func ExampleRunGrid() {
	g := ic.Fig7Grid(1, 1, true)
	g.Blackhole.Nodes = 20
	g.Blackhole.Connections = 5
	g.Blackhole.SimTime = 20
	g.Malicious = []int{0, 2}
	g.Runs = 1
	tables, err := ic.RunGrid(g, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// g.Render(tables) is the text cmd/icsweep prints.
	for _, t := range tables {
		fmt.Println(t.Title, t.Rows(), t.Cols())
	}
	// Output:
	// Fig. 7(a) Network throughput [%] [No IC IC, L=1] [0 2]
	// Fig. 7(b) Energy consumption [J/node] [No IC IC, L=1] [0 2]
}

// ExampleLevelFor sizes the dependability level for a failure budget per
// the §4.2 formula.
func ExampleLevelFor() {
	// A 10-node inner circle tolerating 2 Byzantine nodes and 1 crash.
	l, err := ic.LevelFor(10, 2, 1, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("L =", l)
	byzL, err := ic.ByzantineLevel(9)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("Byzantine special case for N=9: L =", byzL)
	// Output:
	// L = 6
	// Byzantine special case for N=9: L = 5
}

// ExampleTrilaterate recovers a target position from three anchors.
func ExampleTrilaterate() {
	target := ic.Point{X: 30, Y: 40}
	a1 := ic.Point{X: 0, Y: 0}
	a2 := ic.Point{X: 100, Y: 0}
	a3 := ic.Point{X: 0, Y: 100}
	got, err := ic.Trilaterate(a1, a2, a3, target.Dist(a1), target.Dist(a2), target.Dist(a3))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("(%.0f, %.0f)\n", got.X, got.Y)
	// Output:
	// (30, 40)
}

// ExampleWorstCaseError evaluates the §4.3 bound for the paper's worked
// case F = N/3.
func ExampleWorstCaseError() {
	fmt.Printf("E* = %.1f (δC = 1)\n", ic.WorstCaseError(3, 9, 1))
	// Output:
	// E* = 1.0 (δC = 1)
}
