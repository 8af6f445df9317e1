package experiment

import (
	"testing"

	"innercircle/internal/node"
	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
)

// The spatial neighbor index (internal/radio/grid.go) must be behaviorally
// invisible at the top of the stack too: replicas that run the full node
// stack over the radio must produce identical results whether the channel
// chooses for itself (the adaptive default), is pinned to the index, or is
// pinned to the full scan. Radio-level equivalence is checked in
// internal/radio; these tests close the loop on the two paper scenarios —
// waypoint mobility (Fig. 7) and the static sensor grid (Fig. 8) — over
// the same replica grid the sweeps enumerate.

// indexPin is a test-only component pinning the channel's send path.
type indexPin struct{ on bool }

func (indexPin) Attach(*scenario.Env, *node.Node) {}

func (p indexPin) Wire(env *scenario.Env) { env.Net.Channel.SetIndexEnabled(p.on) }

// checkIndexInvisible runs the replica mkSpec builds three times — adaptive,
// index pinned on, index pinned off — and requires identical results.
func checkIndexInvisible(t *testing.T, label string, mkSpec func() *scenario.Spec) {
	t.Helper()
	run := func(pin scenario.Component) *scenario.Result {
		spec := mkSpec()
		if pin != nil {
			spec.Stack.Components = append(spec.Stack.Components, pin)
		}
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	want := run(nil)
	for _, pin := range []indexPin{{on: true}, {on: false}} {
		got := run(pin)
		if got.Counters.String() != want.Counters.String() || got.Gauges.String() != want.Gauges.String() {
			t.Fatalf("%s: index pinned %v diverges from the adaptive default:\n%s | %s\nvs\n%s | %s",
				label, pin.on, got.Counters, got.Gauges, want.Counters, want.Gauges)
		}
	}
}

func TestIndexEquivalenceBlackholeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep comparison")
	}
	base := PaperBlackholeConfig()
	base.Nodes = 25
	base.SimTime = 25
	base.Seed = 77
	for _, pt := range BlackholePoints(base, []int{0, 2}, []int{1}, 1) {
		checkIndexInvisible(t, pt.Label, func() *scenario.Spec { return blackholeSpec(*pt.Spec.Blackhole) })
	}
}

func TestIndexEquivalenceSensorSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep comparison")
	}
	base := PaperSensorConfig()
	base.Nodes = 40
	base.SimTime = 100
	base.Seed = 78
	for _, pt := range SensorPoints(base, []int{3}, []sensor.FaultKind{sensor.FaultNone}, 1) {
		checkIndexInvisible(t, pt.Label, func() *scenario.Spec {
			spec, err := sensorSpec(*pt.Spec.Sensor)
			if err != nil {
				t.Fatal(err)
			}
			return spec
		})
	}
}
