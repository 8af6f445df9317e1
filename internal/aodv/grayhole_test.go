package aodv

import (
	"testing"

	"innercircle/internal/faults"
	"innercircle/internal/geo"
	"innercircle/internal/sim"
)

// applyGrayhole wires the faults-package gray-hole preset into the test
// network — the same path production campaigns take — targeting the given
// node via the fabric's attacker order.
func applyGrayhole(t *testing.T, net *plainNet, node int, p float64) *faults.Applied {
	t.Helper()
	c := faults.GrayholePreset(1, p)
	a, err := faults.Apply(faults.Fabric{
		K:      net.k,
		RNG:    sim.NewRNG(5),
		N:      len(net.routers),
		Order:  []int{node},
		Router: func(i int) faults.RouterCtl { return net.routers[i] },
	}, &c)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGrayHoleIntermittentAttack(t *testing.T) {
	// A gray hole with p=0.5 misbehaves roughly half the time: across many
	// discoveries some forged RREPs and some genuine forwards occur.
	pts := append(linePts(3), geo.Point{X: 50, Y: 150})
	net := buildPlain(t, pts)
	a := applyGrayhole(t, net, 3, 0.5)
	for i := 0; i < 40; i++ {
		i := i
		net.k.ScheduleFire(sim.Duration(i)+1, func() {
			_ = net.routers[0].Send(2, i, 256)
		})
	}
	if err := net.k.Run(60); err != nil {
		t.Fatal(err)
	}
	delivered := len(net.got[2])
	if delivered == 0 {
		t.Fatal("gray hole at p=0.5 blocked everything (should be intermittent)")
	}
	if delivered == 40 {
		t.Fatal("gray hole at p=0.5 never attacked")
	}
	if a.Report().TotalInjected() == 0 {
		t.Fatal("campaign report shows no attack actions")
	}
}

func TestGrayHoleZeroProbabilityIsCorrect(t *testing.T) {
	net := buildPlain(t, linePts(3))
	net.routers[1].SetGrayHole(0, sim.NewRNG(1))
	if err := net.routers[0].Send(2, "x", 256); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(net.got[2]) != 1 {
		t.Fatal("p=0 gray hole dropped traffic")
	}
}

func TestGrayHoleFullProbabilityIsBlackHole(t *testing.T) {
	pts := append(linePts(3), geo.Point{X: 50, Y: 150})
	net := buildPlain(t, pts)
	applyGrayhole(t, net, 3, 1)
	for i := 0; i < 10; i++ {
		if err := net.routers[0].Send(2, i, 256); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.k.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(net.got[2]) != 0 {
		t.Fatalf("p=1 gray hole delivered %d packets, want 0", len(net.got[2]))
	}
}
