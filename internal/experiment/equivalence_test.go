package experiment

import (
	"testing"

	"innercircle/internal/node"
	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
	"innercircle/internal/vote"
)

// The radio's receiver tables (internal/radio) must be behaviorally
// invisible at the top of the stack too: replicas that run the full node
// stack over the radio must produce identical results whether each
// transmitter walks its table (the only production path) or the channel is
// pinned to the reference that measures every transceiver on every send.
// Radio-level equivalence is checked in internal/radio; these tests close
// the loop on the two paper scenarios — waypoint mobility (Fig. 7), where
// tables expire every 3 s of virtual time, and the static sensor grid
// (Fig. 8), where they never do — over the same replica grid the sweeps
// enumerate.

// referencePin is a test-only component pinning the channel to the
// brute-force reference.
type referencePin struct{}

func (referencePin) Attach(*scenario.Env, *node.Node) *vote.Callbacks { return nil }

func (referencePin) Wire(env *scenario.Env) { env.Net.Channel.SetIndexEnabled(false) }

// checkIndexInvisible runs the replica mkSpec builds twice — as shipped, and
// pinned to the reference — and requires identical results: the runner's
// Result and, for a sensor replica (mkSpec returns its sensorNet, nil
// otherwise), the Fig. 8 metrics read from the component.
func checkIndexInvisible(t *testing.T, label string, mkSpec func() (*scenario.Spec, *sensorNet)) {
	t.Helper()
	run := func(pins ...scenario.Component) (scenario.Result, SensorResult) {
		spec, sc := mkSpec()
		spec.Stack.Components = append(spec.Stack.Components, pins...)
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var out SensorResult
		if sc != nil {
			out = sc.result(res)
		}
		return *res, out
	}
	got, gotSensor := run()
	want, wantSensor := run(referencePin{})
	if got != want || gotSensor != wantSensor {
		t.Fatalf("%s: receiver tables diverge from the brute-force reference:\n%+v\n%+v\nvs\n%+v\n%+v",
			label, got, gotSensor, want, wantSensor)
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
	for _, pt := range mustPoints(t, &GridRequest{Kind: GridBlackhole, Blackhole: &base, Malicious: []int{0, 2}, Levels: []int{1}, Runs: 1}) {
		checkIndexInvisible(t, pt.Label, func() (*scenario.Spec, *sensorNet) { return blackholeSpec(*pt.Spec.Blackhole), nil })
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
	for _, pt := range mustPoints(t, &GridRequest{Kind: GridSensor, Sensor: &base, Levels: []int{3}, Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1}) {
		checkIndexInvisible(t, pt.Label, func() (*scenario.Spec, *sensorNet) {
			spec, sc, err := sensorSpec(*pt.Spec.Sensor)
			if err != nil {
				t.Fatal(err)
			}
			return spec, sc
		})
	}
}
