// Package mobility implements node placement and movement models. The
// paper's ad hoc experiment (Fig. 7) uses the random waypoint model with
// 10 m/s speed and zero pause time; the sensor experiment (Fig. 8) uses
// static nodes.
package mobility

import (
	"innercircle/internal/geo"
	"innercircle/internal/sim"
)

// Model yields a node's position at any simulation time. The contract has
// two halves:
//
//   - Callers pass non-decreasing times, which lets movement models advance
//     incrementally.
//   - Under such calls Pos(t) is a function of t alone: which earlier times
//     were sampled, how often, and what any other node did must not change
//     the answer. A model that draws random numbers therefore draws them
//     from a stream of its own (scenario.Topology.Model hands every node a
//     private one) and in an order t alone decides. Callers rely on it: the
//     radio layer evaluates a position only when it needs one, so how often
//     a node is sampled depends on who transmits near it.
//
// A model may also implement
//
//	MaxSpeed() float64
//
// a bound in m/s that holds between any two samples: |Pos(t2) − Pos(t1)| ≤
// MaxSpeed()·(t2 − t1). The radio layer uses it to keep, per transmitter, a
// table of the only transceivers that can be in range before the table
// expires. A model without the method is unbounded — it may teleport — and
// is measured on every transmission.
type Model interface {
	Pos(t sim.Time) geo.Point
}

// Static is a Model that never moves.
type Static geo.Point

// Pos implements Model.
func (s Static) Pos(sim.Time) geo.Point { return geo.Point(s) }

// MaxSpeed is zero: see Model.
func (s Static) MaxSpeed() float64 { return 0 }

var _ Model = Static{}

// Waypoint implements the random waypoint mobility model: a node repeatedly
// picks a uniform destination in the region, travels there in a straight
// line at a uniform speed from [MinSpeed, MaxSpeed], pauses for Pause, and
// repeats.
type Waypoint struct {
	region   geo.Rect
	minSpeed float64
	maxSpeed float64
	pause    sim.Duration
	rng      *sim.RNG

	// current leg
	legStart sim.Time
	from     geo.Point
	to       geo.Point
	speed    float64
	legEnd   sim.Time // arrival at to; pause runs [legEnd, legEnd+pause]
}

var _ Model = (*Waypoint)(nil)

// WaypointConfig parameterizes NewWaypoint.
type WaypointConfig struct {
	Region   geo.Rect
	MinSpeed float64 // m/s; must be > 0
	MaxSpeed float64 // m/s; >= MinSpeed
	Pause    sim.Duration
}

// NewWaypoint returns a waypoint model starting at start, drawing
// destinations and speeds from rng.
func NewWaypoint(cfg WaypointConfig, start geo.Point, rng *sim.RNG) *Waypoint {
	w := &Waypoint{
		region:   cfg.Region,
		minSpeed: cfg.MinSpeed,
		maxSpeed: cfg.MaxSpeed,
		pause:    cfg.Pause,
		rng:      rng,
		from:     cfg.Region.Clamp(start),
		to:       cfg.Region.Clamp(start),
	}
	w.nextLeg(0)
	return w
}

// MaxSpeed bounds the speed of every leg (see Model); a pause is slower.
func (w *Waypoint) MaxSpeed() float64 { return max(0, w.minSpeed, w.maxSpeed) }

// minLeg is the least time a leg takes. A leg's travel time d/speed can be
// smaller than the clock resolves at legStart (a huge speed, a tiny region),
// or zero; were it added as it is, legEnd would equal legStart and, with no
// pause, Pos would start legs forever without getting past t. Holding every
// leg to a millisecond bounds Pos at a thousand legs per virtual second and
// only ever makes a node slower than its drawn speed.
const minLeg = sim.Millisecond

// nextLeg starts a new travel leg at time t from the current destination.
// If the leg moves at all, legEnd > legStart.
func (w *Waypoint) nextLeg(t sim.Time) {
	w.legStart = t
	w.from = w.to
	w.to = geo.Point{
		X: w.rng.Uniform(w.region.MinX, w.region.MaxX),
		Y: w.rng.Uniform(w.region.MinY, w.region.MaxY),
	}
	w.speed = w.rng.Uniform(w.minSpeed, w.maxSpeed)
	if w.speed <= 0 {
		w.speed = w.minSpeed
	}
	d := w.from.Dist(w.to)
	if w.speed > 0 {
		travel := sim.Duration(d / w.speed)
		if !(travel >= minLeg) {
			travel = minLeg
		}
		w.legEnd = w.legStart + travel
	} else {
		w.legEnd = sim.Never
	}
}

// Pos implements Model.
func (w *Waypoint) Pos(t sim.Time) geo.Point {
	// Advance legs until t falls inside the current leg or its pause.
	for t >= w.legEnd+w.pause && w.legEnd != sim.Never {
		w.nextLeg(w.legEnd + w.pause)
	}
	if t >= w.legEnd {
		return w.to // pausing at destination
	}
	if t <= w.legStart {
		return w.from
	}
	frac := float64(t-w.legStart) / float64(w.legEnd-w.legStart)
	return w.from.Add(w.to.Sub(w.from).Scale(frac))
}

// UniformPlacement returns n points drawn uniformly from region.
func UniformPlacement(region geo.Rect, n int, rng *sim.RNG) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			X: rng.Uniform(region.MinX, region.MaxX),
			Y: rng.Uniform(region.MinY, region.MaxY),
		}
	}
	return pts
}

// GridPlacement returns n points on a near-square grid covering region,
// each perturbed by uniform jitter in [-jitter, jitter] on both axes and
// clamped to the region. The sensor experiment uses this to model a dense,
// roughly regular field deployment.
func GridPlacement(region geo.Rect, n int, jitter float64, rng *sim.RNG) []geo.Point {
	if n <= 0 {
		return nil
	}
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	dx := region.Width() / float64(cols)
	dy := region.Height() / float64(rows)
	pts := make([]geo.Point, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		p := geo.Point{
			X: region.MinX + float64((float64(c)+0.5)*dx) + rng.Uniform(-jitter, jitter),
			Y: region.MinY + float64((float64(r)+0.5)*dy) + rng.Uniform(-jitter, jitter),
		}
		pts = append(pts, region.Clamp(p))
	}
	return pts
}
