package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"innercircle/internal/faults"
	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
	"innercircle/internal/sim"
	"innercircle/internal/stats"
)

// TestReplicaSpecCanonicalDeterministic pins the store-key contract:
// marshalling the same spec twice yields identical bytes, and running the
// same spec twice yields identical result bytes — the property that makes
// content addressing a dedup cache rather than a lottery.
func TestReplicaSpecCanonicalDeterministic(t *testing.T) {
	cfg := smallBlackhole()
	cfg.SimTime = 30
	cfg.Malicious = 2
	spec := ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: &cfg}
	a, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical bytes differ:\n%s\n%s", a, b)
	}
	r1, _, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatalf("same spec produced different result bytes:\n%s\n%s", r1, r2)
	}
	res, err := DecodeReplicaResult(r1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blackhole == nil || res.Blackhole.Sent == 0 {
		t.Fatalf("decoded result lost its payload: %+v", res)
	}
}

// TestReplicaSpecCanonicalIgnoresShards: a shard count says how a sensor
// replica runs, not what it computes, so the store key is the same at every
// count — a replica stored at one count is served at any other — while a
// count out of bounds is still refused and the spec keeps its count.
func TestReplicaSpecCanonicalIgnoresShards(t *testing.T) {
	key := func(shards int) ([]byte, error) {
		cfg := PaperSensorConfig()
		cfg.Shards = shards
		b, err := ReplicaSpec{Kind: ReplicaSensorPair, Sensor: &cfg}.Canonical()
		if cfg.Shards != shards {
			t.Fatalf("Canonical changed the spec's shard count from %d to %d", shards, cfg.Shards)
		}
		return b, err
	}
	want, err := key(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		if got, err := key(shards); err != nil || !bytes.Equal(got, want) {
			t.Errorf("shards=%d: canonical bytes %s (err %v), want %s", shards, got, err, want)
		}
	}
	if _, err := key(-1); err == nil {
		t.Error("a negative shard count got a store key")
	}
}

// TestDecodeReplicaResultRejectsUnknown: store bytes written by a newer
// schema must fail loudly, not fold zeros into the tables.
func TestDecodeReplicaResultRejectsUnknown(t *testing.T) {
	if _, err := DecodeReplicaResult([]byte(`{"kind":"blackhole","blackhole":{"Sent":1},"extra":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestReplicaSpecValidate covers the tagged union's error surface.
func TestReplicaSpecValidate(t *testing.T) {
	bh := smallBlackhole()
	sn := PaperSensorConfig()
	for _, tc := range []struct {
		name string
		spec ReplicaSpec
		ok   bool
	}{
		{"blackhole ok", ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: &bh}, true},
		{"sensor ok", ReplicaSpec{Kind: ReplicaSensorPair, Sensor: &sn}, true},
		{"unknown kind", ReplicaSpec{Kind: "warp"}, false},
		{"missing config", ReplicaSpec{Kind: ReplicaBlackhole}, false},
		{"cross config", ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: &bh, Sensor: &sn}, false},
		{"zero speed", ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: atSpeed(bh, 0)}, true},
		{"huge speed", ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: atSpeed(bh, 1e300)}, false},
		{"negative speed", ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: atSpeed(bh, -1)}, false},
		{"NaN speed", ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: atSpeed(bh, math.NaN())}, false},
		{"infinite speed", ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: atSpeed(bh, math.Inf(1))}, false},
		{"sensor at the shard bound", ReplicaSpec{Kind: ReplicaSensor, Sensor: onShards(sn, scenario.MaxShards)}, true},
		{"sensor past the shard bound", ReplicaSpec{Kind: ReplicaSensor, Sensor: onShards(sn, scenario.MaxShards+1)}, false},
		{"sensor pair on negative shards", ReplicaSpec{Kind: ReplicaSensorPair, Sensor: onShards(sn, -1)}, false},
	} {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}

// atSpeed returns a copy of cfg whose nodes move at speed.
func atSpeed(cfg BlackholeConfig, speed float64) *BlackholeConfig {
	cfg.Speed = speed
	return &cfg
}

// bhWith and snWith return a copy of cfg with one field changed.
func bhWith(cfg BlackholeConfig, set func(*BlackholeConfig)) *BlackholeConfig {
	set(&cfg)
	return &cfg
}

func snWith(cfg SensorConfig, set func(*SensorConfig)) *SensorConfig {
	set(&cfg)
	return &cfg
}

// onShards returns a copy of cfg that asks for shards kernels.
func onShards(cfg SensorConfig, shards int) *SensorConfig {
	cfg.Shards = shards
	return &cfg
}

// mustRunGrid evaluates g through RunGrid, the one sweep API.
func mustRunGrid(t *testing.T, g *GridRequest) []*stats.Table {
	t.Helper()
	tables, err := RunGrid(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// mustPoints enumerates g's replicas.
func mustPoints(t *testing.T, g *GridRequest) []ReplicaPoint {
	t.Helper()
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestGridRequestValidate covers the request error surface the service
// relies on to reject malformed submissions before queuing them.
// span returns the n distinct axis values from, from+1, ...
func span(from, n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = from + i
	}
	return v
}

func TestGridRequestValidate(t *testing.T) {
	bh := smallBlackhole()
	sn := PaperSensorConfig()
	for _, tc := range []struct {
		name string
		g    GridRequest
		ok   bool
	}{
		{"blackhole ok", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: []int{0}, Runs: 1}, true},
		{"sensor ok", GridRequest{Kind: GridSensor, Sensor: &sn, Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1}, true},
		{"campaign ok", GridRequest{Kind: GridCampaign, Blackhole: &bh, Campaigns: []faults.Campaign{faults.BlackholePreset(1)}, Runs: 1}, true},
		{"churn ok", GridRequest{Kind: GridChurn, Sensor: &sn, Levels: []int{3}, Churns: []int{0, 2}, Runs: 1}, true},
		{"churn without sensor", GridRequest{Kind: GridChurn, Levels: []int{3}, Churns: []int{0}, Runs: 1}, false},
		{"churn without rates", GridRequest{Kind: GridChurn, Sensor: &sn, Levels: []int{3}, Runs: 1}, false},
		{"churn with blackhole", GridRequest{Kind: GridChurn, Sensor: &sn, Blackhole: &bh, Levels: []int{3}, Churns: []int{0}, Runs: 1}, false},
		{"campaign with churn rates", GridRequest{Kind: GridCampaign, Blackhole: &bh, Campaigns: []faults.Campaign{faults.BlackholePreset(1)}, Churns: []int{1}, Runs: 1}, false},
		{"zero runs", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: []int{0}}, false},
		{"unknown kind", GridRequest{Kind: "mystery", Runs: 1}, false},
		{"blackhole without config", GridRequest{Kind: GridBlackhole, Malicious: []int{0}, Runs: 1}, false},
		{"blackhole without malicious", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Runs: 1}, false},
		{"sensor with campaign fields", GridRequest{Kind: GridSensor, Sensor: &sn, Faults: []sensor.FaultKind{sensor.FaultNone}, Campaigns: []faults.Campaign{faults.BlackholePreset(1)}, Runs: 1}, false},
		{"campaign without campaigns", GridRequest{Kind: GridCampaign, Blackhole: &bh, Runs: 1}, false},
		{"blackhole at a huge speed", GridRequest{Kind: GridBlackhole, Blackhole: atSpeed(bh, 1e300), Malicious: []int{0}, Runs: 1}, false},
		{"blackhole at a negative speed", GridRequest{Kind: GridBlackhole, Blackhole: atSpeed(bh, -10), Malicious: []int{0}, Runs: 1}, false},
		{"campaign at a huge speed", GridRequest{Kind: GridCampaign, Blackhole: atSpeed(bh, 1e300), Campaigns: []faults.Campaign{faults.BlackholePreset(1)}, Runs: 1}, false},
		{"runs at the seed stride", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: []int{0}, Runs: seedStride}, true},
		{"runs past the seed stride", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: []int{0}, Runs: seedStride + 1}, false},
		{"sensor runs past the seed stride", GridRequest{Kind: GridSensor, Sensor: &sn, Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: math.MaxInt}, false},
		{"points at the bound", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: span(0, 50), Levels: span(1, 3), Runs: 500}, true},
		{"points past the bound", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: span(0, 51), Levels: span(1, 3), Runs: 500}, false},
		{"axes past the bound at one run", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: make([]int, 400), Levels: make([]int, 400), Runs: 1}, false},
		{"sensor at the shard bound", GridRequest{Kind: GridSensor, Sensor: onShards(sn, scenario.MaxShards), Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1}, true},
		{"sensor past the shard bound", GridRequest{Kind: GridSensor, Sensor: onShards(sn, 150000), Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1}, false},
		{"churn on negative shards", GridRequest{Kind: GridChurn, Sensor: onShards(sn, -4), Levels: []int{3}, Churns: []int{0}, Runs: 1}, false},
		// A campaign's own numbers have ceilings too (internal/faults): two
		// billion copies of every message, and a churn window that starts a
		// cycle every nanosecond, once passed.
		{"campaign of two billion copies", GridRequest{Kind: GridCampaign, Blackhole: &bh, Campaigns: []faults.Campaign{{Name: "copies", Entries: []faults.Entry{
			{Fault: faults.Duplicate, Params: faults.Params{Copies: 2000000000}, Targets: faults.Selector{All: true}}}}}, Runs: 1}, false},
		{"campaign cycling every nanosecond", GridRequest{Kind: GridCampaign, Blackhole: &bh, Campaigns: []faults.Campaign{{Name: "cycles", Entries: []faults.Entry{
			{Fault: faults.Blackhole, Targets: faults.Selector{All: true}, Schedule: faults.Window{Every: 1e-9, For: 1e-9}}}}}, Runs: 1}, false},
		{"blackhole base config cycling every nanosecond", GridRequest{Kind: GridBlackhole, Malicious: []int{0}, Runs: 1, Blackhole: bhWith(bh, func(c *BlackholeConfig) {
			c.Campaign = &faults.Campaign{Entries: []faults.Entry{
				{Fault: faults.Grayhole, Params: faults.Params{P: 0.5}, Targets: faults.Selector{All: true}, Schedule: faults.Window{Every: 1e-9, For: 1e-9}}}}
		})}, false},
	} {
		err := tc.g.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}

	// Every numeric field of both configs is bounded: one row per field,
	// each a value no later check used to catch before the spec builders
	// sized slices by it (nodes) or a loop ran on it (periods, sim time).
	// The same bounds guard a lone ReplicaSpec.
	inf, nan := math.Inf(1), math.NaN()
	bhGrid := func(set func(*BlackholeConfig)) (GridRequest, ReplicaSpec) {
		c := bhWith(bh, set)
		return GridRequest{Kind: GridBlackhole, Blackhole: c, Malicious: []int{0}, Runs: 1},
			ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: c}
	}
	snGrid := func(set func(*SensorConfig)) (GridRequest, ReplicaSpec) {
		c := snWith(sn, set)
		return GridRequest{Kind: GridSensor, Sensor: c, Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1},
			ReplicaSpec{Kind: ReplicaSensorPair, Sensor: c}
	}
	type fieldCase struct {
		field string
		g     GridRequest
		s     ReplicaSpec
	}
	var fields []fieldCase
	bhField := func(field string, set func(*BlackholeConfig)) {
		g, s := bhGrid(set)
		fields = append(fields, fieldCase{"blackhole " + field, g, s})
	}
	snField := func(field string, set func(*SensorConfig)) {
		g, s := snGrid(set)
		fields = append(fields, fieldCase{"sensor " + field, g, s})
	}
	bhField("nodes", func(c *BlackholeConfig) { c.Nodes = 2000000000 })
	bhField("nodes zero", func(c *BlackholeConfig) { c.Nodes = 0 })
	bhField("region", func(c *BlackholeConfig) { c.Region = 1e300 })
	bhField("region zero", func(c *BlackholeConfig) { c.Region = 0 })
	bhField("speed", func(c *BlackholeConfig) { c.Speed = nan })
	bhField("pause", func(c *BlackholeConfig) { c.Pause = -1 })
	bhField("connections", func(c *BlackholeConfig) { c.Connections = math.MaxInt })
	bhField("rate", func(c *BlackholeConfig) { c.Rate = 1e300 })
	bhField("packet_bytes", func(c *BlackholeConfig) { c.PacketBytes = 2000000000 })
	bhField("sim_time", func(c *BlackholeConfig) { c.SimTime = 1e308 })
	bhField("sim_time zero", func(c *BlackholeConfig) { c.SimTime = 0 })
	bhField("traffic_from", func(c *BlackholeConfig) { c.TrafficFrom = sim.Time(inf) })
	bhField("malicious", func(c *BlackholeConfig) { c.Malicious = -1 })
	bhField("gray_prob", func(c *BlackholeConfig) { c.GrayProb = 2 })
	bhField("l", func(c *BlackholeConfig) { c.L = 1000 })
	snField("nodes", func(c *SensorConfig) { c.Nodes = 2000000000 })
	snField("region", func(c *SensorConfig) { c.Region = 1e300 })
	snField("range", func(c *SensorConfig) { c.Range = 0 })
	snField("region / range", func(c *SensorConfig) { c.Range = 1e-9 })
	snField("sim_time", func(c *SensorConfig) { c.SimTime = 1e308 })
	snField("sense_period", func(c *SensorConfig) { c.SensePeriod = 0 })
	snField("sim_time / sense_period", func(c *SensorConfig) { c.SensePeriod = 1e-9 })
	snField("lambda", func(c *SensorConfig) { c.Lambda = nan })
	snField("model.kt", func(c *SensorConfig) { c.Model.KT = 1e300 })
	snField("model.k", func(c *SensorConfig) { c.Model.K = -2 })
	snField("model.d0", func(c *SensorConfig) { c.Model.D0 = inf })
	snField("model.sigma_n", func(c *SensorConfig) { c.Model.SigmaN = nan })
	snField("target_start", func(c *SensorConfig) { c.TargetStart = -1 })
	snField("target_period", func(c *SensorConfig) { c.TargetPeriod = 1e300 })
	snField("sim_time / target_period", func(c *SensorConfig) { c.TargetPeriod = 1e-9 })
	snField("target_duration", func(c *SensorConfig) { c.TargetDuration = 1e300 })
	snField("faulty", func(c *SensorConfig) { c.Faulty = 2000000000 })
	snField("fault_params.eclbr", func(c *SensorConfig) { c.FaultParams.Eclbr = inf })
	snField("fault_params.eintf", func(c *SensorConfig) { c.FaultParams.Eintf = -1 })
	snField("l", func(c *SensorConfig) { c.L = 1000 })
	snField("eta", func(c *SensorConfig) { c.Eta = nan })
	snField("churn.crash_rejoin", func(c *SensorConfig) { c.Churn = &scenario.Churn{CrashRejoin: 2000000000} })
	snField("churn.leaves", func(c *SensorConfig) { c.Churn = &scenario.Churn{Leaves: 2000000000} })
	snField("churn.start", func(c *SensorConfig) { c.Churn = &scenario.Churn{Start: 1e300} })
	snField("churn.window", func(c *SensorConfig) { c.Churn = &scenario.Churn{Window: 1e300} })
	snField("churn.downtime", func(c *SensorConfig) { c.Churn = &scenario.Churn{Downtime: 1e300} })
	snField("churn.reshare_interval", func(c *SensorConfig) { c.Churn = &scenario.Churn{ReshareInterval: 1e-9} })
	snField("churn.refresh_interval", func(c *SensorConfig) { c.Churn = &scenario.Churn{RefreshInterval: 1e-9} })
	snField("churn.protect", func(c *SensorConfig) { c.Churn = &scenario.Churn{Protect: 2000000000} })
	for _, tc := range fields {
		if err := tc.g.Validate(); err == nil {
			t.Errorf("grid with %s out of bounds accepted", tc.field)
		}
		if err := tc.s.Validate(); err == nil {
			t.Errorf("replica spec with %s out of bounds accepted", tc.field)
		}
	}
	for _, tc := range []struct {
		name string
		g    GridRequest
	}{
		{"levels", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: []int{0}, Levels: []int{1000}, Runs: 1}},
		{"malicious", GridRequest{Kind: GridBlackhole, Blackhole: &bh, Malicious: []int{2000000000}, Runs: 1}},
		{"churns", GridRequest{Kind: GridChurn, Sensor: &sn, Levels: []int{3}, Churns: []int{2000000000}, Runs: 1}},
	} {
		if err := tc.g.Validate(); err == nil {
			t.Errorf("grid with a %s axis value out of bounds accepted", tc.name)
		}
	}
	// The ceilings themselves are in bounds.
	atCeiling, _ := bhGrid(func(c *BlackholeConfig) {
		c.Nodes, c.SimTime, c.Region, c.L = maxNodes, maxSimTime, maxRegion, maxLevel
	})
	if err := atCeiling.Validate(); err != nil {
		t.Errorf("blackhole at its ceilings: %v", err)
	}
	atCeiling, _ = snGrid(func(c *SensorConfig) {
		c.Nodes, c.Region, c.Range, c.L = maxNodes, maxRegion, 16, maxLevel
	})
	if err := atCeiling.Validate(); err != nil {
		t.Errorf("sensor at its ceilings: %v", err)
	}
}

// TestGridAxesLeveledAndDistinct: every level of a grid is at least 1, and
// no value repeats on the level axis or on the kind's column axis. A level
// 0 row was labelled "IC, L=0" over replicas that ran another level (and a
// churn grid's failed in node.Build); a repeated column value folded two
// seed sets into one cell, narrowing its ± on duplicated data.
func TestGridAxesLeveledAndDistinct(t *testing.T) {
	edit := func(g *GridRequest, set func(g *GridRequest)) *GridRequest {
		set(g)
		return g
	}
	atLevels := func(g *GridRequest, levels ...int) *GridRequest {
		return edit(g, func(g *GridRequest) { g.Levels = levels })
	}
	for _, tc := range []struct {
		name string
		g    *GridRequest
		want string // in the error
	}{
		{"blackhole at level 0", atLevels(Fig7Grid(1, 1, true), 0), "levels must be between 1"},
		{"sensor at level 0", atLevels(Fig8Grid(1, 1, true), 0), "levels must be between 1"},
		{"campaign at level 0", atLevels(CoverageGrid(1, 1, true), 0), "levels must be between 1"},
		{"churn at level 0", atLevels(ChurnGrid(1, 1, true), 0), "levels must be between 1"},
		{"repeated level", atLevels(Fig8Grid(1, 1, true), 3, 5, 3), `row "IC, L=3" appears twice`},
		{"repeated malicious count", edit(Fig7Grid(1, 1, true), func(g *GridRequest) { g.Malicious = []int{1, 1} }), `column "malicious=1" appears twice`},
		{"repeated fault kind", edit(Fig8Grid(1, 1, true), func(g *GridRequest) {
			g.Faults = []sensor.FaultKind{sensor.FaultNone, sensor.FaultPosition, sensor.FaultNone}
		}), `column "fault=none" appears twice`},
		{"repeated campaign", edit(CoverageGrid(1, 1, true), func(g *GridRequest) {
			g.Campaigns = []faults.Campaign{faults.BlackholePreset(1), faults.BlackholePreset(1)}
		}), `column "campaign=blackhole-1" appears twice`},
		{"repeated churn rate", edit(ChurnGrid(1, 1, true), func(g *GridRequest) { g.Churns = []int{0, 2, 2} }), `column "churn=2" appears twice`},
	} {
		if err := tc.g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestBlackholeWireFormHasNoShards: a shard count is a field of the sensor
// config only — a blackhole replica cannot shard — so a request that puts
// one in a blackhole config is refused as an unknown field, not ignored.
func TestBlackholeWireFormHasNoShards(t *testing.T) {
	var g GridRequest
	err := strictDecode([]byte(`{"kind":"blackhole","blackhole":{"nodes":50,"shards":2},"malicious":[0],"runs":1}`), &g)
	if err == nil || !strings.Contains(err.Error(), `unknown field "shards"`) {
		t.Fatalf("err = %v, want an unknown-field error naming shards", err)
	}
}

// TestTableCSV pins the long-form CSV rendering the repro analyzer emits.
// TestChurnGridWireForm pins the wire form of the churn axis on the path
// that carries it, a churn GridRequest decoded the way the service's submit
// handler decodes one (unknown fields rejected): the schedule round-trips
// byte-identically, its absence marshals to nothing, and an unknown churn
// sub-field is rejected.
func TestChurnGridWireForm(t *testing.T) {
	decode := func(b []byte) (*GridRequest, error) {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var g GridRequest
		err := dec.Decode(&g)
		return &g, err
	}
	g := ChurnGrid(7, 2, true)
	g.Sensor.Churn = &scenario.Churn{
		CrashRejoin:     4,
		Leaves:          1,
		Start:           2,
		Window:          6,
		Downtime:        1.5,
		Reshare:         scenario.ReshareEvery,
		ReshareInterval: 3,
		RefreshInterval: 5,
		Protect:         2,
	}
	first, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), `"churn":{"crash_rejoin":4`) {
		t.Fatalf("churn schedule missing from wire form: %s", first)
	}
	back, err := decode(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped grid invalid: %v", err)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-marshal differs:\nfirst:  %s\nsecond: %s", first, second)
	}

	// No schedule → no churn key on the wire (old artifacts hash unchanged).
	g.Sensor.Churn = nil
	plain, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), `"churn":`) {
		t.Fatalf("nil churn leaked into wire form: %s", plain)
	}

	// Unknown fields inside the churn object fail loudly.
	drifted := bytes.Replace(first, []byte(`"crash_rejoin":4`), []byte(`"crash_rejoin":4,"surprise":1`), 1)
	if _, err := decode(drifted); err == nil {
		t.Fatal("unknown churn field accepted")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := stats.NewTable("T", "r")
	tbl.Add("a,x", "c1", 1)
	tbl.Add("a,x", "c1", 3)
	tbl.Add("b", "c2", 2)
	want := "row,col,n,mean,ci95\n\"a,x\",c1,2,2,1.9599999999999997\nb,c2,1,2,0\n"
	if got := tbl.CSV(); got != want {
		t.Fatalf("CSV mismatch:\ngot:  %q\nwant: %q", got, want)
	}
}

// TestTablesRejectsForeignResults: result bytes come from the store, so a
// result of another kind, or one without its payload, must fail the fold
// instead of reaching a figure's accessor.
func TestTablesRejectsForeignResults(t *testing.T) {
	g := Fig7Grid(1, 1, false)
	g.Malicious, g.Levels = []int{0}, nil // one point: No IC, 0 malicious
	for name, result := range map[string]string{
		"other kind":   `{"kind":"sensor","sensor":{}}`,
		"no payload":   `{"kind":"blackhole"}`,
		"wrong body":   `{"kind":"blackhole","sensor":{}}`,
		"unknown kind": `{"kind":"warp"}`,
	} {
		if _, err := g.Tables([][]byte{[]byte(result)}); err == nil {
			t.Errorf("%s: folded %s", name, result)
		}
	}
	if _, err := g.Tables([][]byte{[]byte(`{"kind":"blackhole","blackhole":{"Throughput":50}}`)}); err != nil {
		t.Errorf("well-formed result rejected: %v", err)
	}
	if _, err := g.Tables(nil); err == nil {
		t.Error("missing results accepted")
	}
}
