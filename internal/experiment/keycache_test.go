package experiment

import "testing"

// TestSensorKeyCacheOrderIndependent: the sensor scenario's RSA keys used to
// come from a cache sized by its first caller, so one 40-node IC sensor
// replica made every later 100-node one fail ("cached key set has 40 keys,
// need 100") until the process restarted — in icserved, one small grid
// broke Fig. 8. node.Build now draws every node key from one growing seeded
// stream (node's TestSeededKeysPrefix holds the prefix property), so a
// replica computes the same result whatever sizes ran before it.
func TestSensorKeyCacheOrderIndependent(t *testing.T) {
	run := func(nodes int) SensorResult {
		cfg := PaperSensorConfig()
		cfg.Nodes = nodes
		cfg.IC = true
		cfg.Seed = 5
		cfg.SimTime = 60
		res, err := RunSensor(cfg)
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		return res
	}
	first := map[int]SensorResult{}
	for _, n := range []int{40, 100, 40, 100} {
		got := run(n)
		if want, ok := first[n]; !ok {
			first[n] = got
		} else if got != want {
			t.Errorf("%d nodes after other sizes:\n got %+v\nwant %+v", n, got, want)
		}
	}
}
