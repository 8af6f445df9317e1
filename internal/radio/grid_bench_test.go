package radio

import (
	"math"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// benchSend measures one frame transmission plus its delivery resolution
// over the given field, with receiver tables (indexOn) or the pinned
// reference that measures every transceiver. Each send advances the clock by
// its 2 ms of airtime, so a waypoint field rebuilds tables as it would in a
// replica: 100 nodes at 10 m/s and 40 m range give a table 0.5 s.
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
// (100 nodes, 200 m square, 40 m range). static and waypoint are the
// production configuration: each sender walks its receiver table, built once
// on the static field (static4k: the same at field_scale's size) and once
// per horizon on the waypoint one. The -fullscan variants are the reference
// the tables are tested against, which measures all 100 on every send.
func BenchmarkRadioSend(b *testing.B) {
	b.Run("static", func(b *testing.B) { benchSend(b, staticField(100), true) })
	b.Run("static4k", func(b *testing.B) { benchSend(b, staticField(4000), true) })
	b.Run("static-fullscan", func(b *testing.B) { benchSend(b, staticField(100), false) })
	b.Run("waypoint", func(b *testing.B) { benchSend(b, waypointField(100), true) })
	b.Run("waypoint-fullscan", func(b *testing.B) { benchSend(b, waypointField(100), false) })
}

// BenchmarkSendUnicastNeighbourhood measures one unicast exchange where
// every node hears every other: 16 addressed transceivers in a disc of
// half the 802.11 range, a data frame from one node to the next, and the
// addressee's ACK-shaped reply one SIFS later. Each of the other fourteen
// nodes overhears both frames. events/op counts the kernel events of one
// exchange: the data frame's reception, the reply's turnaround and the
// reply's reception.
func BenchmarkSendUnicastNeighbourhood(b *testing.B) {
	const nodes = 16
	k := sim.NewKernel()
	params := Default80211()
	ch := NewChannel(k, params)
	rng := sim.NewRNG(1)
	trs := make([]*Transceiver, nodes)
	acks := make([]Header, nodes)
	for i := range trs {
		r, theta := params.Range/2*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		p := geo.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
		sendAck := func() {
			if err := ch.Send(trs[i], Frame{Header: acks[i], Bytes: 66}); err != nil {
				b.Fatal(err)
			}
		}
		trs[i] = ch.Attach(mobility.Static(p), nil, func(f Frame, _ ID) {
			if h := f.Header; h.Kind == ohData && h.Dst == int32(i) {
				acks[i] = Header{Kind: ohAck, Src: int32(i), Dst: h.Src, Seq: h.Seq}
				k.ScheduleFire(ohSIFS, sendAck)
			}
		})
		trs[i].Addressed()
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := k.Processed()
	for n := 0; n < b.N; n++ {
		src := n % nodes
		h := Header{Kind: ohData, Src: int32(src), Dst: int32((src + 1) % nodes), Seq: uint32(n)}
		if err := ch.Send(trs[src], Frame{Header: h, Bytes: 564}); err != nil {
			b.Fatal(err)
		}
		if err := k.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k.Processed()-start)/float64(b.N), "events/op")
}
