package mobility

import (
	"math"
	"testing"
	"time"

	"innercircle/internal/geo"
	"innercircle/internal/sim"
)

func TestStaticNeverMoves(t *testing.T) {
	s := Static(geo.Point{X: 3, Y: 4})
	for _, tm := range []sim.Time{0, 1, 100, 1e6} {
		if got := s.Pos(tm); got != (geo.Point{X: 3, Y: 4}) {
			t.Fatalf("Pos(%v) = %v, want (3,4)", tm, got)
		}
	}
}

func newTestWaypoint(seed int64, pause sim.Duration) *Waypoint {
	cfg := WaypointConfig{
		Region:   geo.Square(1000),
		MinSpeed: 10,
		MaxSpeed: 10,
		Pause:    pause,
	}
	return NewWaypoint(cfg, geo.Point{X: 500, Y: 500}, sim.NewRNG(seed))
}

func TestWaypointStaysInRegion(t *testing.T) {
	region := geo.Square(1000)
	for seed := int64(0); seed < 5; seed++ {
		w := newTestWaypoint(seed, 0)
		for tm := sim.Time(0); tm < 1000; tm += 0.5 {
			p := w.Pos(tm)
			if !region.Contains(p) {
				t.Fatalf("seed %d: Pos(%v) = %v outside region", seed, tm, p)
			}
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	w := newTestWaypoint(1, 0)
	const dt = 0.1
	prev := w.Pos(0)
	for tm := sim.Time(dt); tm < 500; tm += dt {
		p := w.Pos(tm)
		d := p.Dist(prev)
		if d > 10*dt+1e-6 {
			t.Fatalf("node moved %v m in %v s (> max speed 10 m/s)", d, dt)
		}
		prev = p
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	w := newTestWaypoint(2, 0)
	start := w.Pos(0)
	moved := false
	for tm := sim.Time(1); tm < 100; tm++ {
		if w.Pos(tm).Dist(start) > 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("waypoint node did not move in 100 s at 10 m/s")
	}
}

func TestWaypointDeterministic(t *testing.T) {
	a := newTestWaypoint(7, 0)
	b := newTestWaypoint(7, 0)
	for tm := sim.Time(0); tm < 200; tm += 1.5 {
		if a.Pos(tm) != b.Pos(tm) {
			t.Fatalf("same-seed trajectories diverged at %v", tm)
		}
	}
}

func TestWaypointPause(t *testing.T) {
	// With a long pause, after arriving the node must hold position.
	cfg := WaypointConfig{Region: geo.Square(100), MinSpeed: 50, MaxSpeed: 50, Pause: 1000}
	w := NewWaypoint(cfg, geo.Point{X: 50, Y: 50}, sim.NewRNG(3))
	// Max leg length is the diagonal ~141 m -> at most ~2.9 s travel.
	arrived := w.Pos(5)
	for tm := sim.Time(5); tm < 100; tm += 5 {
		if got := w.Pos(tm); got != arrived {
			t.Fatalf("node moved during pause: %v at %v vs %v", got, tm, arrived)
		}
	}
}

func TestUniformPlacementInRegion(t *testing.T) {
	region := geo.Rect{MinX: 10, MinY: 20, MaxX: 110, MaxY: 220}
	pts := UniformPlacement(region, 500, sim.NewRNG(4))
	if len(pts) != 500 {
		t.Fatalf("got %d points, want 500", len(pts))
	}
	for _, p := range pts {
		if !region.Contains(p) {
			t.Fatalf("point %v outside region", p)
		}
	}
}

func TestGridPlacementCountAndBounds(t *testing.T) {
	region := geo.Square(200)
	for _, n := range []int{1, 7, 100, 101} {
		pts := GridPlacement(region, n, 5, sim.NewRNG(5))
		if len(pts) != n {
			t.Fatalf("GridPlacement(%d) returned %d points", n, len(pts))
		}
		for _, p := range pts {
			if !region.Contains(p) {
				t.Fatalf("grid point %v outside region", p)
			}
		}
	}
	if got := GridPlacement(region, 0, 0, sim.NewRNG(1)); got != nil {
		t.Fatalf("GridPlacement(0) = %v, want nil", got)
	}
}

func TestGridPlacementRoughlyEven(t *testing.T) {
	// 100 nodes on 200x200 should have nearest-neighbour spacing near 20 m.
	pts := GridPlacement(geo.Square(200), 100, 2, sim.NewRNG(6))
	var minNN, maxNN float64 = math.Inf(1), 0
	for i, p := range pts {
		nn := math.Inf(1)
		for j, q := range pts {
			if i == j {
				continue
			}
			if d := p.Dist(q); d < nn {
				nn = d
			}
		}
		minNN = math.Min(minNN, nn)
		maxNN = math.Max(maxNN, nn)
	}
	if minNN < 10 || maxNN > 30 {
		t.Fatalf("nearest-neighbour spacing [%v, %v], want within [10, 30]", minNN, maxNN)
	}
}

// TestWaypointNonDecreasingTimeContract exercises the documented Model
// contract — Pos may be called with non-decreasing (including repeated)
// times — across many leg and pause boundaries, and asserts the two
// invariants callers rely on: positions stay inside the region, and the
// distance covered between samples never exceeds MaxSpeed (paused nodes
// hold still; travelling legs keep per-leg speed within
// [MinSpeed, MaxSpeed]).
func TestWaypointNonDecreasingTimeContract(t *testing.T) {
	region := geo.Square(300)
	const minSpeed, maxSpeed = 5.0, 15.0
	for seed := int64(0); seed < 4; seed++ {
		cfg := WaypointConfig{
			Region:   region,
			MinSpeed: minSpeed,
			MaxSpeed: maxSpeed,
			Pause:    1.5,
		}
		w := NewWaypoint(cfg, geo.Point{X: 150, Y: 150}, sim.NewRNG(seed))
		rng := sim.NewRNG(seed + 100)
		// Legs are at most ~85 s (diagonal / MinSpeed); 2000 samples with a
		// mean step of 0.5 s cross many leg and pause boundaries.
		now := sim.Time(0)
		prevT := now
		prev := w.Pos(now)
		for i := 0; i < 2000; i++ {
			// Mix of repeats (equal times) and forward steps.
			if i%5 == 0 {
				if got := w.Pos(now); got != prev {
					t.Fatalf("seed %d: Pos(%v) repeated call moved: %v -> %v", seed, now, prev, got)
				}
				continue
			}
			now += sim.Duration(rng.Uniform(0, 1))
			p := w.Pos(now)
			if !region.Contains(p) {
				t.Fatalf("seed %d: Pos(%v) = %v outside region", seed, now, p)
			}
			dt := float64(now - prevT)
			if d := p.Dist(prev); d > w.MaxSpeed()*dt+1e-9 {
				t.Fatalf("seed %d: moved %v m in %v s (> MaxSpeed %v m/s)", seed, d, dt, w.MaxSpeed())
			}
			// The current leg's drawn speed must respect the config bounds.
			if w.speed < minSpeed || w.speed > maxSpeed {
				t.Fatalf("seed %d: leg speed %v outside [%v, %v]", seed, w.speed, minSpeed, maxSpeed)
			}
			prev, prevT = p, now
		}
		if now < 500 {
			t.Fatalf("seed %d: sampled only %v s; expected to cross several legs", seed, now)
		}
		if w.MaxSpeed() != maxSpeed {
			t.Fatalf("MaxSpeed() = %v, want %v", w.MaxSpeed(), maxSpeed)
		}
	}
}

// TestMaxSpeedBounds pins the bound each model declares (Model's optional
// MaxSpeed): zero for Static, and for a Waypoint the larger of its two
// configured speeds, never negative.
func TestMaxSpeedBounds(t *testing.T) {
	if v := Static(geo.Point{X: 1}).MaxSpeed(); v != 0 {
		t.Fatalf("Static.MaxSpeed() = %v", v)
	}
	for _, tc := range []struct{ min, max, want float64 }{{10, 10, 10}, {5, 15, 15}, {15, 5, 15}, {0, 0, 0}, {-3, -1, 0}} {
		w := NewWaypoint(WaypointConfig{Region: geo.Square(100), MinSpeed: tc.min, MaxSpeed: tc.max}, geo.Point{}, sim.NewRNG(1))
		if got := w.MaxSpeed(); got != tc.want {
			t.Fatalf("Waypoint{%v, %v}.MaxSpeed() = %v, want %v", tc.min, tc.max, got, tc.want)
		}
	}
}

// TestWaypointSparseEqualsDense is the second half of Model's contract:
// Pos(t) depends on t alone. One model is sampled every 10 ms, its twin
// (same seed) once per 30 s at instants the first also sees; positions must
// be bitwise equal, with a pause (boundaries inside and outside the gaps)
// and without.
func TestWaypointSparseEqualsDense(t *testing.T) {
	for _, pause := range []sim.Duration{0, 7.3} {
		for seed := int64(0); seed < 4; seed++ {
			dense, sparse := newTestWaypoint(seed, pause), newTestWaypoint(seed, pause)
			legs := 0
			for i := 0; i <= 90000; i++ { // 900 s: about nine legs of up to 141 s
				now := sim.Time(i) * 10 * sim.Millisecond
				to := dense.to
				p := dense.Pos(now)
				if dense.to != to {
					legs++
				}
				if i%3000 != 0 {
					continue
				}
				if q := sparse.Pos(now); q != p {
					t.Fatalf("pause %v, seed %d: Pos(%v) = %v sampled every 10 ms, %v sampled every 30 s", pause, seed, now, p, q)
				}
			}
			if legs < 4 {
				t.Fatalf("pause %v, seed %d: only %d leg boundaries crossed", pause, seed, legs)
			}
		}
	}
}

// TestWaypointHugeSpeedTerminates: with a speed so large that a leg's
// travel time is below the clock's resolution and no pause, every leg once
// ended where it began and Pos started legs forever. A leg now takes at
// least minLeg, so Pos is bounded at 1/minLeg legs per virtual second —
// here 300 000 — whatever the speed or the region.
func TestWaypointHugeSpeedTerminates(t *testing.T) {
	for _, cfg := range []WaypointConfig{
		{Region: geo.Square(1000), MinSpeed: 1e300, MaxSpeed: 1e300},
		{Region: geo.Square(1000), MinSpeed: math.Inf(1), MaxSpeed: math.Inf(1)},
		{Region: geo.Square(1e-300), MinSpeed: 10, MaxSpeed: 10},
		{Region: geo.Rect{}, MinSpeed: 10, MaxSpeed: 10},
	} {
		w := NewWaypoint(cfg, geo.Point{}, sim.NewRNG(1))
		began := time.Now()
		p := w.Pos(300)
		if took := time.Since(began); took > 5*time.Second {
			t.Fatalf("%+v: Pos(300) took %v", cfg, took)
		}
		if !cfg.Region.Contains(p) {
			t.Fatalf("%+v: Pos(300) = %v outside region", cfg, p)
		}
		if w.legEnd <= w.legStart || w.legStart > 300 || w.legEnd+w.pause <= 300 {
			t.Fatalf("%+v: at t=300 the current leg is [%v, %v]", cfg, w.legStart, w.legEnd)
		}
	}
}
