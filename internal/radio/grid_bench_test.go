package radio

import (
	"math"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// benchSend measures one frame transmission plus its delivery resolution
// over the given field, with the spatial index on or off.
func benchSend(b *testing.B, models []mobility.Model, indexOn bool) {
	b.Helper()
	k := sim.NewKernel()
	ch := NewChannel(k, Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8})
	ch.SetIndexEnabled(indexOn)
	trs := make([]*Transceiver, len(models))
	for i, m := range models {
		trs[i] = ch.Attach(m, nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Send(trs[i%len(trs)], Frame{Bytes: 512}); err != nil {
			b.Fatal(err)
		}
		if err := k.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// staticField places n static nodes at the sensor scenario's density: 100 per
// 200 m square.
func staticField(n int) []mobility.Model {
	edge := 200 * math.Sqrt(float64(n)/100)
	rng := sim.NewRNG(1)
	models := make([]mobility.Model, n)
	for i := range models {
		models[i] = mobility.Static(geo.Point{X: rng.Uniform(0, edge), Y: rng.Uniform(0, edge)})
	}
	return models
}

func waypointField(n int) []mobility.Model {
	region := geo.Square(200)
	rng := sim.NewRNG(1)
	models := make([]mobility.Model, n)
	for i := range models {
		start := geo.Point{X: rng.Uniform(0, 200), Y: rng.Uniform(0, 200)}
		models[i] = mobility.NewWaypoint(mobility.WaypointConfig{
			Region: region, MinSpeed: 10, MaxSpeed: 10,
		}, start, sim.NewRNG(int64(i)))
	}
	return models
}

// BenchmarkRadioSend measures frame transmission at sensor-scenario density
// (100 nodes, 200 m square, 40 m range): the static field with the index on
// is the production configuration, where each sender enumerates once and
// then walks its receiver table — so static-fullscan differs from it only
// in the first send per node; static4k is the same at field_scale's size;
// waypoint enumerates on every send, with the per-epoch mobile re-bin
// (index) or the O(N) scan (fullscan).
func BenchmarkRadioSend(b *testing.B) {
	b.Run("static", func(b *testing.B) { benchSend(b, staticField(100), true) })
	b.Run("static4k", func(b *testing.B) { benchSend(b, staticField(4000), true) })
	b.Run("static-fullscan", func(b *testing.B) { benchSend(b, staticField(100), false) })
	b.Run("waypoint", func(b *testing.B) { benchSend(b, waypointField(100), true) })
	b.Run("waypoint-fullscan", func(b *testing.B) { benchSend(b, waypointField(100), false) })
}
