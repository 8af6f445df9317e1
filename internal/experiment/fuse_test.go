package experiment

import (
	"bytes"
	"encoding/hex"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/sensor"
	"innercircle/internal/sim"
)

// fuseSets are fixed notification sets for the statistical fusion
// function, each as a center's own value followed by its voters'. The
// target sits at (100, 100); energies follow the paper's signal model
// with small offsets, so trilateration and both fusion stages have work.
func fuseSets() map[string][][]byte {
	model := sensor.Paper()
	target := geo.Point{X: 100, Y: 100}
	note := func(t sim.Time, pos geo.Point, de float64) []byte {
		return sensor.Notification{Time: t, Energy: model.SignalAt(pos.Dist(target)) + de, Pos: pos}.Encode()
	}
	return map[string][][]byte{
		"clean": {
			note(50.001, geo.Point{X: 80, Y: 95}, 0.3),
			note(50.004, geo.Point{X: 118, Y: 90}, -0.2),
			note(50.002, geo.Point{X: 96, Y: 125}, 0.1),
			note(50.007, geo.Point{X: 112, Y: 117}, -0.4),
			note(50.003, geo.Point{X: 85, Y: 112}, 0.25),
		},
		// One voter reports a stuck-high energy, which also pulls its
		// trilateration distance in; a truncated value is skipped.
		"outlier": {
			note(75.002, geo.Point{X: 80, Y: 95}, 0.3),
			note(75.001, geo.Point{X: 118, Y: 90}, -0.2),
			note(75.006, geo.Point{X: 96, Y: 125}, 4000),
			[]byte{1, 2, 3},
			note(75.004, geo.Point{X: 112, Y: 117}, -0.4),
			note(75.003, geo.Point{X: 85, Y: 112}, 0.25),
		},
		// Three anchors lie almost on one line, and one voter's energy is
		// not positive, so it gives no distance and no anchor.
		"collinear": {
			note(150.003, geo.Point{X: 80, Y: 100}, 0.2),
			note(150.001, geo.Point{X: 100, Y: 100.001}, -0.1),
			note(150.005, geo.Point{X: 120, Y: 100}, 0.15),
			sensor.Notification{Time: 150.002, Energy: 0, Pos: geo.Point{X: 90, Y: 130}}.Encode(),
			note(150.004, geo.Point{X: 110, Y: 80}, -0.3),
		},
	}
}

// TestSensorFusePinned holds makeSensorFuse's output on fixed inputs to
// the bytes recorded before the fusion paths built their observations in
// shared backing arrays, under every fusion algorithm, and checks that a
// call leaves its inputs and an earlier call's output untouched.
func TestSensorFusePinned(t *testing.T) {
	want := map[FusionAlg]map[string]string{
		FusionCluster: {
			"clean":     "4049006f69446738404696445482c4004058fabbd9ae77704058ffe7487ade20",
			"outlier":   "4052c0346dc5d6384048523196b028504058fae53f20db344058fe18446ef744",
			"collinear": "4062c0189374bc6b40475777777778004058ffaeaab1a876405905904d75e3b9",
		},
		FusionMean: {
			"clean":     "404900624dd2f1a940475a5e54d3c02b4058fae53f20db344058ff50ac1728e8",
			"outlier":   "4052c03126e978d54048cbe95b116c8d4058fae53f20db3440599d4b0d910de2",
			"collinear": "4062c0189374bc6b40475777777777784058ffaeaab1a877405905904d75e3b9",
		},
		FusionNaive: {
			"clean":     "4049006f69446738404696445482c4004058fabbd9ae77704058ffe7487ade20",
			"outlier":   "4052c0346dc5d638408a693b4f859ce5405965ef9572563e405a53dbcccdeca4",
			"collinear": "4062c0189374bc6b40af77fae147ae174058ffaeaab1a876405905904d75e3b9",
		},
	}
	sets := fuseSets()
	for _, alg := range []FusionAlg{FusionCluster, FusionMean, FusionNaive} {
		cfg := PaperSensorConfig()
		cfg.Fusion = alg
		fuse := makeSensorFuse(cfg)
		for _, name := range []string{"clean", "outlier", "collinear"} {
			got := hex.EncodeToString(fuse(0, sets[name]))
			if got != want[alg][name] {
				t.Errorf("fusion %d, set %s:\n got %s\nwant %s", alg, name, got, want[alg][name])
			}
		}

		// A second call with other inputs must not reach the first
		// call's output or inputs.
		first := sets["outlier"]
		firstIn := cloneValues(first)
		out := fuse(0, first)
		outCopy := bytes.Clone(out)
		fuse(0, sets["clean"])
		if !bytes.Equal(out, outCopy) {
			t.Errorf("fusion %d: a second call changed the first call's output", alg)
		}
		for i := range first {
			if !bytes.Equal(first[i], firstIn[i]) {
				t.Errorf("fusion %d: value %d of the first call's input changed", alg, i)
			}
		}
		if again := fuse(0, first); !bytes.Equal(again, outCopy) {
			t.Errorf("fusion %d: the same input fused to %x, then %x", alg, outCopy, again)
		}
	}
}

func cloneValues(vs [][]byte) [][]byte {
	out := make([][]byte, len(vs))
	for i, v := range vs {
		out[i] = bytes.Clone(v)
	}
	return out
}
