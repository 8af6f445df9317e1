package experiment

import (
	"testing"

	"innercircle/internal/node"
)

// resetSensorKeys empties the key cache, as a fresh process finds it.
func resetSensorKeys() {
	sensorKeys.Lock()
	sensorKeys.stream, sensorKeys.keys = nil, nil
	sensorKeys.Unlock()
}

// TestSensorKeyCacheOrderIndependent: the cache used to be sized by its
// first caller, so one 40-node IC sensor replica made every later 100-node
// one fail ("cached key set has 40 keys, need 100") until the process
// restarted — in icserved, one small grid broke Fig. 8. The cache now grows,
// and because the keys come off one seeded stream in order, the first n are
// the same whatever was asked for before: a replica computes what a fresh
// process computes, in any order of sizes.
func TestSensorKeyCacheOrderIndependent(t *testing.T) {
	t.Cleanup(resetSensorKeys)
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
	fresh := map[int]SensorResult{}
	for _, n := range []int{40, 100} {
		resetSensorKeys()
		fresh[n] = run(n)
	}
	resetSensorKeys()
	for _, n := range []int{40, 100, 40} {
		if got := run(n); got != fresh[n] {
			t.Errorf("%d nodes after other sizes:\n got %+v\nwant %+v", n, got, fresh[n])
		}
	}

	// The prefix property the cache rests on, against the generator the
	// cache used to call: a grown cache holds GenerateKeySetSeeded's keys.
	whole, err := node.GenerateKeySetSeeded(100, 512, sensorKeySeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100, 40} {
		keys, err := cachedSensorKeys(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != n {
			t.Fatalf("asked for %d keys, got %d", n, len(keys))
		}
		for i, kp := range keys {
			if kp.Pub.N.Cmp(whole[i].Pub.N) != 0 {
				t.Fatalf("key %d of %d differs from the seeded set's", i, n)
			}
		}
	}
}
