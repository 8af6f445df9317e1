package radio

import (
	"fmt"
	"testing"

	"innercircle/internal/energy"
	"innercircle/internal/geo"
	"innercircle/internal/mobility"
	"innercircle/internal/sim"
)

// runTrafficScenario builds a channel over the given mobility models, blasts
// a deterministic traffic pattern through it (staggered unicast-style sends
// from every node, dense enough to force collisions), and returns the
// channel stats, each meter's consumed energy, and the full delivery trace.
// The scenario is identical for every call; only indexOn varies.
func runTrafficScenario(t *testing.T, params Params, models []mobility.Model, indexOn bool) (Stats, []float64, []string) {
	t.Helper()
	k := sim.NewKernel()
	ch := NewChannel(k, params)
	ch.SetIndexEnabled(indexOn)
	var trace []string
	trs := make([]*Transceiver, len(models))
	meters := make([]*energy.Meter, len(models))
	for i, mdl := range models {
		i := i
		meters[i] = energy.NewMeter(energy.NS2Default())
		trs[i] = ch.Attach(mdl, meters[i], func(f Frame, from ID) {
			trace = append(trace, fmt.Sprintf("%v: %d<-%d %v", k.Now(), i, from, f.Payload))
		})
	}
	rng := sim.NewRNG(99)
	for round := 0; round < 40; round++ {
		for i := range trs {
			tr := trs[i]
			payload := fmt.Sprintf("r%d-n%d", round, i)
			at := sim.Time(round)*0.25 + rng.Jitter(0.2)
			k.MustSchedule(at, func() {
				_ = ch.Send(tr, Frame{Bytes: 256 + 64*(round%3), Payload: payload})
			})
		}
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	consumed := make([]float64, len(meters))
	for i, m := range meters {
		consumed[i] = m.Consumed(k.Now())
	}
	return ch.Stats, consumed, trace
}

// assertScenarioEquivalent runs the scenario with the index on and off and
// requires identical stats, energy totals, and delivery traces.
func assertScenarioEquivalent(t *testing.T, params Params, build func() []mobility.Model) {
	t.Helper()
	statsOn, energyOn, traceOn := runTrafficScenario(t, params, build(), true)
	statsOff, energyOff, traceOff := runTrafficScenario(t, params, build(), false)
	if statsOn != statsOff {
		t.Fatalf("stats diverge: index on %+v, off %+v", statsOn, statsOff)
	}
	if len(traceOn) != len(traceOff) {
		t.Fatalf("trace lengths diverge: index on %d, off %d", len(traceOn), len(traceOff))
	}
	for i := range traceOn {
		if traceOn[i] != traceOff[i] {
			t.Fatalf("trace[%d] diverges:\n  on:  %s\n  off: %s", i, traceOn[i], traceOff[i])
		}
	}
	for i := range energyOn {
		if energyOn[i] != energyOff[i] {
			t.Fatalf("node %d energy diverges: on %v, off %v", i, energyOn[i], energyOff[i])
		}
	}
	if statsOn.FramesDelivered == 0 {
		t.Fatal("scenario delivered nothing; equivalence check is vacuous")
	}
	if statsOn.FramesCollided == 0 {
		t.Fatal("scenario produced no collisions; equivalence check misses the collision path")
	}
}

// TestIndexEquivalenceStaticGrid cross-checks the spatial index on the
// sensor-scenario shape: a static jittered grid at 40 m range.
func TestIndexEquivalenceStaticGrid(t *testing.T) {
	params := Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8}
	assertScenarioEquivalent(t, params, func() []mobility.Model {
		pts := mobility.GridPlacement(geo.Square(200), 60, 4, sim.NewRNG(11))
		models := make([]mobility.Model, len(pts))
		for i, p := range pts {
			models[i] = mobility.Static(p)
		}
		return models
	})
}

// TestIndexEquivalenceWaypoint cross-checks the index under random-waypoint
// mobility, where nodes cross cell boundaries mid-run and the lazy per-epoch
// re-bin must keep the candidate sets exact.
func TestIndexEquivalenceWaypoint(t *testing.T) {
	params := Params{Range: 100, Bitrate: 2e6, PropSpeed: 3e8}
	assertScenarioEquivalent(t, params, func() []mobility.Model {
		region := geo.Square(400)
		place := sim.NewRNG(12)
		pts := mobility.UniformPlacement(region, 40, place)
		models := make([]mobility.Model, len(pts))
		for i, p := range pts {
			models[i] = mobility.NewWaypoint(mobility.WaypointConfig{
				Region:   region,
				MinSpeed: 20, // fast: many cell crossings within the run
				MaxSpeed: 40,
				Pause:    0,
			}, p, sim.NewRNG(int64(1000+i)))
		}
		return models
	})
}

// TestIndexNeighborsCoverInRange is the index's safety property: for any
// sender, every in-range transceiver (oracle: exhaustive distance check)
// must appear in the indexed candidate set, at several query times.
func TestIndexNeighborsCoverInRange(t *testing.T) {
	k := sim.NewKernel()
	params := Params{Range: 75, Bitrate: 2e6, PropSpeed: 3e8}
	ch := NewChannel(k, params)
	region := geo.Square(500)
	rng := sim.NewRNG(31)
	var trs []*Transceiver
	for i, p := range mobility.UniformPlacement(region, 25, rng) {
		var m mobility.Model
		if i%2 == 0 {
			m = mobility.Static(p)
		} else {
			m = mobility.NewWaypoint(mobility.WaypointConfig{
				Region: region, MinSpeed: 30, MaxSpeed: 30,
			}, p, sim.NewRNG(int64(i)))
		}
		trs = append(trs, ch.Attach(m, nil, nil))
	}
	for _, at := range []sim.Time{0, 1.5, 3, 3, 10} {
		at := at
		k.MustSchedule(at-k.Now(), func() {})
		if !k.Step() && at > 0 {
			t.Fatal("no event to advance clock")
		}
		now := k.Now()
		for _, tr := range trs {
			src := ch.posAt(tr, now)
			cands := map[int32]bool{}
			for _, ri := range ch.grid.neighbors(ch, src, now) {
				cands[ri] = true
			}
			for _, r := range trs {
				if r == tr {
					continue
				}
				if ch.posAt(r, now).Dist(src) <= params.Range && !cands[int32(r.id)] {
					t.Fatalf("t=%v: node %d in range of %d but missing from index candidates", now, r.id, tr.id)
				}
			}
		}
	}
}

// TestIndexCandidatesSortedAndLateAttach verifies the two properties the
// equivalence argument rests on: candidates come back in ascending ID (the
// full-scan visit order), and transceivers attached after the index has
// been queried still show up (the dirty re-bin path).
func TestIndexCandidatesSortedAndLateAttach(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, Params{Range: 50, Bitrate: 2e6, PropSpeed: 3e8})
	var got []any
	for i := 0; i < 10; i++ {
		ch.Attach(mobility.Static(geo.Point{X: float64(i)}), nil, nil)
	}
	// Query once so the index considers itself built.
	_ = ch.grid.neighbors(ch, geo.Point{}, k.Now())
	// Late attaches: one static, one mobile, both co-located with the pack.
	ch.Attach(mobility.Static(geo.Point{X: 5, Y: 5}), nil, func(f Frame, _ ID) { got = append(got, f.Payload) })
	ch.Attach(&linear{start: geo.Point{X: 5, Y: -5}}, nil, func(f Frame, _ ID) { got = append(got, f.Payload) })
	cands := ch.grid.neighbors(ch, geo.Point{}, k.Now())
	for i := 1; i < len(cands); i++ {
		if cands[i-1] >= cands[i] {
			t.Fatalf("candidates not ascending: %v", cands)
		}
	}
	if err := ch.Send(ch.trs[0], Frame{Bytes: 64, Payload: "late"}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("late-attached transceivers received %d frames, want 2", len(got))
	}
}

// TestSetIndexEnabledPins checks the typed cross-check pin.
func TestSetIndexEnabledPins(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, Default80211())
	ch.SetIndexEnabled(false)
	if ch.useIndex {
		t.Fatal("SetIndexEnabled(false) did not disable the index")
	}
	if ch.adaptive {
		t.Fatal("SetIndexEnabled should pin the choice, not leave it adaptive")
	}
	// The grid is still maintained, so re-enabling works.
	ch.SetIndexEnabled(true)
	if !ch.useIndex {
		t.Fatal("SetIndexEnabled(true) did not re-enable the index")
	}
}

// probeChannel drives 2×probeSends sends through a fresh adaptive channel
// over the given models. It reports whether the index is in use afterwards
// and after how many sends the probe committed (0: it never did).
func probeChannel(t *testing.T, params Params, models []mobility.Model) (useIndex bool, committedAfter int) {
	t.Helper()
	k := sim.NewKernel()
	ch := NewChannel(k, params)
	if !ch.adaptive || !ch.useIndex {
		t.Fatal("fresh channel should start adaptive with the index on")
	}
	trs := make([]*Transceiver, len(models))
	for i, m := range models {
		trs[i] = ch.Attach(m, nil, nil)
	}
	for i := 0; i < 2*probeSends; i++ {
		tr := trs[i%len(trs)]
		k.MustSchedule(0, func() { _ = ch.Send(tr, Frame{Bytes: 64}) })
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		if !ch.adaptive && committedAfter == 0 {
			committedAfter = i + 1
		}
	}
	return ch.useIndex, committedAfter
}

// TestIndexAdaptiveFallback checks the probe. It samples enumerations, not
// sends, and is fed candidate counts, never receiver-table lengths: on a
// channel with anything mobile every send enumerates, so the probe commits
// after exactly probeSends sends, as it did before static senders kept
// receiver tables — an all-mobile field whose range covers the whole
// deployment (the index prunes nothing but still pays the per-epoch re-bin)
// to the full scan, a mostly static field with a short range to the index.
// An all-static field enumerates once per transmitter; with fewer
// transmitters than probeSends it stays on the index without committing.
func TestIndexAdaptiveFallback(t *testing.T) {
	short := Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8}
	if useIndex, after := probeChannel(t, short, staticField(100)); !useIndex || after != 0 {
		t.Fatalf("static field: index=%v, committed after %d sends; want the index, uncommitted", useIndex, after)
	}
	wholeField := Params{Range: 300, Bitrate: 2e6, PropSpeed: 3e8}
	if useIndex, after := probeChannel(t, wholeField, waypointField(50)); useIndex || after != probeSends {
		t.Fatalf("50 waypoint nodes, whole-field range: index=%v, committed after %d sends; want the full scan after %d",
			useIndex, after, probeSends)
	}
	mixed := append(waypointField(50), staticField(200)...)
	if useIndex, after := probeChannel(t, short, mixed); !useIndex || after != probeSends {
		t.Fatalf("50 waypoint + 200 static nodes, short range: index=%v, committed after %d sends; want the index after %d",
			useIndex, after, probeSends)
	}
}

// neighbors returns the indexed candidate set for src on a single-kernel
// channel: the enumeration Send uses, for the tests that inspect it.
func (g *gridIndex) neighbors(c *Channel, src geo.Point, now sim.Time) []int32 {
	return c.shards[0].candidates(c, src, now)
}

// TestSendDoesNotAllocate guards the pooled arrivals and the candidate
// scratch buffer: once both have grown to their working size, a send plus
// the resolution of every arrival it caused allocates nothing, under either
// receiver enumeration.
func TestSendDoesNotAllocate(t *testing.T) {
	for _, indexOn := range []bool{true, false} {
		k := sim.NewKernel()
		ch := NewChannel(k, Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8})
		ch.SetIndexEnabled(indexOn)
		var trs []*Transceiver
		for _, m := range staticField(100) {
			trs = append(trs, ch.Attach(m, nil, nil))
		}
		i := 0
		send := func() {
			if err := ch.Send(trs[i%len(trs)], Frame{Bytes: 512}); err != nil {
				t.Fatal(err)
			}
			if err := k.RunAll(); err != nil {
				t.Fatal(err)
			}
			i++
		}
		// Warm-up: every sender several times over, so the arrival pool, the
		// scratch buffer and the kernel's timer-wheel slots reach their
		// working size.
		for n := 0; n < 20*len(trs); n++ {
			send()
		}
		if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
			t.Errorf("index=%v: %v allocations per send + resolution, want 0", indexOn, allocs)
		}
		if ch.Stats.FramesDelivered == 0 {
			t.Fatalf("index=%v: nothing delivered; the guard is vacuous", indexOn)
		}
	}
}
