package scenario

import (
	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// Topology places the nodes and gives each one a mobility model.
type Topology interface {
	// Place draws the n node positions from rng — the scenario's
	// "placement" stream. Every random placement decision must come from
	// this rng, in node order, so a seed pins the deployment.
	Place(n int, rng *sim.RNG) []geo.Point
	// Model returns node i's mobility model. pos is the node's placed
	// position; rng is the node's private mobility stream (ignored by
	// static models).
	Model(i int, pos geo.Point, rng *sim.RNG) mobility.Model
}

// RandomWaypoint is the MANET deployment of the paper's Fig. 7 box:
// uniform placement over Region, random-waypoint motion between MinSpeed
// and MaxSpeed with the given pause time.
type RandomWaypoint struct {
	Region   geo.Rect
	MinSpeed float64
	MaxSpeed float64
	Pause    sim.Duration
}

// Place implements Topology.
func (t RandomWaypoint) Place(n int, rng *sim.RNG) []geo.Point {
	return mobility.UniformPlacement(t.Region, n, rng)
}

// Model implements Topology.
func (t RandomWaypoint) Model(_ int, pos geo.Point, rng *sim.RNG) mobility.Model {
	return mobility.NewWaypoint(mobility.WaypointConfig{
		Region:   t.Region,
		MinSpeed: t.MinSpeed,
		MaxSpeed: t.MaxSpeed,
		Pause:    t.Pause,
	}, pos, rng)
}

// BaseStationGrid is the static sensor deployment of the Fig. 8 box:
// node 0 is the base station at the region's centre; the remaining nodes
// sit on a jittered grid (or scattered uniformly — uniform deployments
// have thin patches, which matters for weak-signal miss alarms, §5.2).
type BaseStationGrid struct {
	Region geo.Rect
	// GridJitter is the grid placement's jitter amplitude in metres.
	GridJitter float64
	// Uniform scatters sensors uniformly instead of on the grid.
	Uniform bool
}

// Place implements Topology.
func (t BaseStationGrid) Place(n int, rng *sim.RNG) []geo.Point {
	positions := make([]geo.Point, n)
	positions[0] = t.Region.Center()
	var sensors []geo.Point
	if t.Uniform {
		sensors = mobility.UniformPlacement(t.Region, n-1, rng)
	} else {
		sensors = mobility.GridPlacement(t.Region, n-1, t.GridJitter, rng)
	}
	copy(positions[1:], sensors)
	return positions
}

// Model implements Topology.
func (t BaseStationGrid) Model(_ int, pos geo.Point, _ *sim.RNG) mobility.Model {
	return mobility.Static(pos)
}
