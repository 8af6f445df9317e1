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
// The scenario is identical for every call; only indexOn varies: receiver
// tables, or the brute-force reference that measures everyone on every send.
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
			k.ScheduleFire(at, func() {
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

// assertScenarioEquivalent runs the scenario with receiver tables and with
// the pinned reference and requires identical stats, energy totals, and
// delivery traces.
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

// TestIndexEquivalenceStaticGrid cross-checks the grid-built tables on the
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

// TestIndexEquivalenceWaypoint cross-checks the tables under random-waypoint
// mobility: the 10 s of traffic span 32 table lifetimes (100 m range, 40 m/s
// top speed), during which nodes enter and leave each other's range.
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

// TestIndexNeighborsCoverInRange is the tables' safety property: for any
// sender, every in-range transceiver (oracle: exhaustive distance check)
// must appear in its receiver table, at several query times — the same
// instant twice, and far enough apart that tables expire in between.
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
	for _, at := range []sim.Time{0, 0.2, 1.5, 3, 3, 10} {
		at := at
		k.ScheduleFire(at-k.Now(), func() {})
		if !k.Step() && at > 0 {
			t.Fatal("no event to advance clock")
		}
		now := k.Now()
		for _, tr := range trs {
			src := ch.posAt(tr, now)
			table := map[ID]bool{}
			for _, e := range ch.receivers(ch.shards[0], tr, src, now) {
				table[e.r.id] = true
			}
			for _, r := range trs {
				if r == tr {
					continue
				}
				if ch.posAt(r, now).Dist(src) <= params.Range && !table[r.id] {
					t.Fatalf("t=%v: node %d in range of %d but missing from its receiver table", now, r.id, tr.id)
				}
			}
		}
	}
	// Horizon 0.3125 s: 0.2 is answered by the tables built at 0, and the
	// second query at 3 by the first's.
	if builds := ch.shards[0].tableBuilds; builds != uint64(4*len(trs)) {
		t.Fatalf("%d table builds by %d senders with horizon %v, want four each", builds, len(trs), ch.horizon())
	}
}

// TestIndexCandidatesSortedAndLateAttach verifies the two properties the
// equivalence argument rests on: candidates come back in ascending ID (the
// brute-force visit order), and transceivers attached after tables were
// built — a static one, and a mover without a speed bound — still show up.
func TestIndexCandidatesSortedAndLateAttach(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, Params{Range: 50, Bitrate: 2e6, PropSpeed: 3e8})
	var got []any
	for i := 0; i < 10; i++ {
		ch.Attach(mobility.Static(geo.Point{X: float64(i)}), nil, nil)
	}
	// Send once so the sender has a table to go stale.
	if err := ch.Send(ch.trs[0], Frame{Bytes: 64, Payload: "early"}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Late attaches: one static, one mobile, both co-located with the pack;
	// and one waypoint in between, so movers and grid cells interleave.
	ch.Attach(mobility.Static(geo.Point{X: 5, Y: 5}), nil, func(f Frame, _ ID) { got = append(got, f.Payload) })
	ch.Attach(waypointField(1)[0], nil, nil)
	ch.Attach(mobility.Static(geo.Point{X: 5, Y: 6}), nil, nil)
	ch.Attach(&linear{start: geo.Point{X: 5, Y: -5}}, nil, func(f Frame, _ ID) { got = append(got, f.Payload) })
	cands := ch.shards[0].candidates(ch, geo.Point{}, 50)
	if len(cands) != len(ch.trs) {
		t.Fatalf("%d candidates around the pack of %d", len(cands), len(ch.trs))
	}
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

// TestSetIndexEnabledPins checks the typed cross-check pin: off, a sender's
// table is stale and its next one holds every other transceiver; on again,
// that one is stale and the next holds the neighbourhood. A channel without
// a range has no grid to build tables from.
func TestSetIndexEnabledPins(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8})
	var trs []*Transceiver
	for _, m := range staticField(100) {
		trs = append(trs, ch.Attach(m, nil, nil))
	}
	sc, src, now := ch.shards[0], ch.posAt(trs[0], 0), k.Now()
	near := len(ch.receivers(sc, trs[0], src, now))
	if near == 0 || near > len(trs)/2 {
		t.Fatalf("table of %d among %d transceivers; the field does not tell tables from scans", near, len(trs))
	}
	ch.SetIndexEnabled(false)
	if got := len(ch.receivers(sc, trs[0], src, now)); got != len(trs)-1 || sc.tableBuilds != 2 {
		t.Fatalf("SetIndexEnabled(false): Send walks %d of %d transceivers after %d table builds", got, len(trs), sc.tableBuilds)
	}
	ch.SetIndexEnabled(true)
	if got := len(ch.receivers(sc, trs[0], src, now)); got != near || sc.tableBuilds != 3 {
		t.Fatalf("SetIndexEnabled(true): Send walks %d transceivers, %d before, after %d table builds", got, near, sc.tableBuilds)
	}
	flat := NewChannel(k, Params{Bitrate: 2e6})
	flat.SetIndexEnabled(true)
	if flat.useIndex {
		t.Fatal("a channel with no range has no grid to build tables from")
	}
}

// TestSendDoesNotAllocate guards the pooled arrivals, the scratch buffers
// and the tables' reuse of their own storage: once all have grown to their
// working size, a send plus the resolution of every arrival it caused
// allocates nothing — on a static field and on a waypoint field where the
// measured sends advance the clock through several table rebuilds, with
// tables and under the pinned reference.
func TestSendDoesNotAllocate(t *testing.T) {
	fields := map[string]func(int) []mobility.Model{"static": staticField, "waypoint": waypointField}
	for name, field := range fields {
		for _, indexOn := range []bool{true, false} {
			k := sim.NewKernel()
			ch := NewChannel(k, Params{Range: 40, Bitrate: 2e6, PropSpeed: 3e8})
			ch.SetIndexEnabled(indexOn)
			var trs []*Transceiver
			for _, m := range field(100) {
				trs = append(trs, ch.Attach(m, nil, nil))
			}
			i := 0
			send := func() {
				if err := ch.Send(trs[i%len(trs)], Frame{Bytes: 512}); err != nil {
					t.Fatal(err)
				}
				// 10 ms on, so 100 sends are two table lifetimes at 10 m/s.
				if err := k.Run(k.Now() + 10*sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				i++
			}
			// Warm-up: every sender several times over, so the arrival pool,
			// the scratch buffers, the tables and the kernel's timer-wheel
			// slots reach their working size.
			for n := 0; n < 20*len(trs); n++ {
				send()
			}
			builds := ch.shards[0].tableBuilds
			if allocs := testing.AllocsPerRun(400, send); allocs != 0 {
				t.Errorf("%s, index=%v: %v allocations per send + resolution, want 0", name, indexOn, allocs)
			}
			if ch.Stats.FramesDelivered == 0 {
				t.Fatalf("%s, index=%v: nothing delivered; the guard is vacuous", name, indexOn)
			}
			if rebuilt := ch.shards[0].tableBuilds - builds; name == "waypoint" && indexOn && rebuilt < 2*uint64(len(trs)) {
				t.Fatalf("waypoint: %d table rebuilds during the measured sends; the guard misses the rebuild path", rebuilt)
			}
		}
	}
}
