// Grid layer: the one description of a parameter sweep. A GridRequest is
// what cmd/icsweep builds from its flags, what scripts/repro POSTs to the
// experiment service (internal/serve) and what a library caller hands to
// RunGrid; every one of them evaluates it through the same stages, with a
// wire format at each seam:
//
//	GridRequest ──Points()──▶ []ReplicaPoint ──Spec.Run()──▶ result bytes
//	result bytes ──Tables()──▶ []*stats.Table ──Render()──▶ CLI text
//
// RunGrid (sweep.go) runs the stages in process on the worker pool; the
// service runs them replica by replica through the content-addressed
// store and renders byte-identical tables. The canonical spec bytes
// double as the store key: same spec + same seed → same result bytes →
// same digest, at any worker/shard setting (the kernel's determinism
// contract). What a kind name means at each stage is one entry of the
// tables in kinds.go; the code here is the same for every kind.
package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"innercircle/internal/faults"
	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
	"innercircle/internal/stats"
)

// Replica spec kinds.
const (
	// ReplicaBlackhole runs one ad-hoc network replica (Fig. 7 / campaign).
	ReplicaBlackhole = "blackhole"
	// ReplicaSensorPair runs one sensor replica pair: the with-target run
	// and its NoTarget sibling under the same seed (Fig. 8's unit of work).
	ReplicaSensorPair = "sensorpair"
	// ReplicaSensor runs one with-target sensor replica — the churn sweep's
	// unit of work, which has no NoTarget sibling (membership lifecycle
	// metrics do not need the false-alarm baseline).
	ReplicaSensor = "sensor"
)

// ReplicaSpec is the wire form of one replica: a tagged union over the
// experiment configs. Its canonical JSON bytes are hashed into the
// content-addressed store's spec digest.
type ReplicaSpec struct {
	Kind      string           `json:"kind"`
	Blackhole *BlackholeConfig `json:"blackhole,omitempty"`
	Sensor    *SensorConfig    `json:"sensor,omitempty"`
}

// Ceilings on what a config from outside the program may ask for. A request
// is a few hundred bytes whatever it asks for, and the spec builders size
// slices by these fields before scenario.Spec.Validate sees the result, so
// every numeric field is checked to be a number, not negative and under its
// ceiling before anything is built. The ceilings sit well above anything
// documented; they bound memory and the length of loops, not wall-clock
// time (a per-job budget is ROADMAP item 7).
const (
	// maxNodes: the largest documented field is 100k nodes
	// (ScaledSensorConfig); the builders make several slices of this length.
	maxNodes = 1 << 20
	// maxSimTime, in virtual seconds (11.6 days); the paper runs 200–300 s.
	// It also bounds every other instant and delay of a config.
	maxSimTime = 1e6
	// maxRegion, in metres a side; the 100k-node field is 6.3 km.
	maxRegion = 1e6
	// maxColumns bounds region/range: scenario.StripePartition makes two
	// slices with one entry per range-wide grid column.
	maxColumns = 1 << 16
	// maxNodeSpeed is the radio signal's own speed (radio.Default80211). The
	// physical layer takes a position as fixed while a frame propagates, and
	// the cost of a mobile replica grows with the legs a node starts per
	// virtual second.
	maxNodeSpeed = 3e8
	// maxRate, in packets per second per connection; the paper sends 4.
	maxRate = 1e4
	// maxPacketBytes is the largest IP datagram; the paper sends 512.
	maxPacketBytes = 1 << 16
	// maxPeriods bounds sim time over a period (sensing epochs, targets,
	// scheduled reshares and refreshes): each period schedules an event,
	// and Harvest walks the epochs again.
	maxPeriods = 1e6
	// maxLevel: a level deals one threshold share per node (vote.DealRing),
	// so levels × nodes is memory before the run starts; the paper sweeps
	// L to 7.
	maxLevel = 64
	// maxSignal bounds the sensing model's physical constants and
	// thresholds (K·T, λ, η, fault multipliers); the paper's largest is
	// K·T = 20000.
	maxSignal = 1e12
)

// bound is one numeric field of a config and the range it must lie in.
type bound struct {
	name     string
	v, max   float64
	positive bool // zero would stall the run or divide by it
}

// checkBounds rejects the first field that is not a number, negative, zero
// where positive is required, or above its ceiling.
func checkBounds(config string, bounds []bound) error {
	for _, b := range bounds {
		if !(b.v >= 0 && b.v <= b.max) || (b.positive && b.v == 0) {
			low := "0"
			if b.positive {
				low = "above 0"
			}
			return fmt.Errorf("experiment: %s config: %s must be %s and at most %g, got %v", config, b.name, low, b.max, b.v)
		}
	}
	return nil
}

// periods bounds how many times period fits into simTime (maxPeriods); a
// zero period schedules nothing.
func periods(name string, simTime, period float64) bound {
	b := bound{name: "sim_time / " + name, max: maxPeriods}
	if period > 0 {
		b.v = simTime / period
	}
	return b
}

// validBounds checks every numeric field against its ceiling, the
// campaign's included, and that the config carries no Tracer: a tracer is
// runtime state a spec's bytes cannot carry, and one shared by a grid's
// replicas would race across workers (each replica needs its own).
func (cfg *BlackholeConfig) validBounds() error {
	if cfg.Tracer != nil {
		return fmt.Errorf("experiment: blackhole config must not carry a Tracer")
	}
	if err := checkBounds("blackhole", []bound{
		{"nodes", float64(cfg.Nodes), maxNodes, true},
		{"region", cfg.Region, maxRegion, true},
		{"speed", cfg.Speed, maxNodeSpeed, false},
		{"pause", float64(cfg.Pause), maxSimTime, false},
		{"connections", float64(cfg.Connections), maxNodes, false},
		{"rate", cfg.Rate, maxRate, false},
		{"packet_bytes", float64(cfg.PacketBytes), maxPacketBytes, false},
		{"sim_time", float64(cfg.SimTime), maxSimTime, true},
		{"traffic_from", float64(cfg.TrafficFrom), maxSimTime, false},
		{"malicious", float64(cfg.Malicious), maxNodes, false},
		{"gray_prob", cfg.GrayProb, 1, false},
		{"l", float64(cfg.L), maxLevel, false},
	}); err != nil {
		return err
	}
	if cfg.Campaign != nil {
		if err := cfg.Campaign.Validate(); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	return nil
}

// validBounds checks every numeric field against its ceiling, the churn
// schedule's included.
func (cfg *SensorConfig) validBounds() error {
	simTime := float64(cfg.SimTime)
	bounds := []bound{
		{"nodes", float64(cfg.Nodes), maxNodes, true},
		{"region", cfg.Region, maxRegion, true},
		{"range", cfg.Range, maxRegion, true},
		{"region / range", cfg.Region / cfg.Range, maxColumns, false},
		{"sim_time", simTime, maxSimTime, true},
		{"sense_period", float64(cfg.SensePeriod), maxSimTime, true},
		periods("sense_period", simTime, float64(cfg.SensePeriod)),
		{"lambda", cfg.Lambda, maxSignal, false},
		{"model.kt", cfg.Model.KT, maxSignal, false},
		{"model.k", cfg.Model.K, maxSignal, false},
		{"model.d0", cfg.Model.D0, maxSignal, false},
		{"model.sigma_n", cfg.Model.SigmaN, maxSignal, false},
		{"target_start", float64(cfg.TargetStart), maxSimTime, false},
		{"target_period", float64(cfg.TargetPeriod), maxSimTime, false},
		periods("target_period", simTime, float64(cfg.TargetPeriod)),
		{"target_duration", float64(cfg.TargetDuration), maxSimTime, false},
		{"faulty", float64(cfg.Faulty), maxNodes, false},
		{"fault_params.eclbr", cfg.FaultParams.Eclbr, maxSignal, false},
		{"fault_params.eintf", cfg.FaultParams.Eintf, maxSignal, false},
		{"l", float64(cfg.L), maxLevel, false},
		{"eta", cfg.Eta, maxSignal, false},
	}
	if c := cfg.Churn; c != nil {
		bounds = append(bounds,
			bound{"churn.crash_rejoin", float64(c.CrashRejoin), maxNodes, false},
			bound{"churn.leaves", float64(c.Leaves), maxNodes, false},
			bound{"churn.start", float64(c.Start), maxSimTime, false},
			bound{"churn.window", float64(c.Window), maxSimTime, false},
			bound{"churn.downtime", float64(c.Downtime), maxSimTime, false},
			bound{"churn.reshare_interval", float64(c.ReshareInterval), maxSimTime, false},
			periods("churn.reshare_interval", simTime, float64(c.ReshareInterval)),
			bound{"churn.refresh_interval", float64(c.RefreshInterval), maxSimTime, false},
			periods("churn.refresh_interval", simTime, float64(c.RefreshInterval)),
			bound{"churn.protect", float64(c.Protect), maxNodes, false},
		)
	}
	if err := checkBounds("sensor", bounds); err != nil {
		return err
	}
	return scenario.ValidShards(cfg.Shards)
}

func (cfg *BlackholeConfig) seed() *int64 { return &cfg.Seed }
func (cfg *SensorConfig) seed() *int64    { return &cfg.Seed }

// config returns the config slot the spec's kind requires and the one it
// forbids; ok is false for an unknown kind.
func (s ReplicaSpec) config() (want, other configSlot, ok bool) {
	kind, ok := replicaKinds[s.Kind]
	slots := configSlots(s.Blackhole, s.Sensor)
	return slots[kind.config], slots[1-kind.config], ok
}

// Validate checks the union discriminant and the config it selects.
func (s ReplicaSpec) Validate() error {
	want, other, ok := s.config()
	switch {
	case !ok:
		return fmt.Errorf("experiment: unknown replica spec kind %q", s.Kind)
	case want.cfg == nil:
		return fmt.Errorf("experiment: replica spec kind %q without a %s config", s.Kind, want.name)
	case other.cfg != nil:
		return fmt.Errorf("experiment: replica spec kind %q carries a %s config", s.Kind, other.name)
	}
	return want.cfg.validBounds()
}

// Canonical returns the spec's canonical JSON bytes: Go struct-order
// field emission with omitempty zero suppression, which is deterministic
// for a fixed value — the property the content-addressed store keys on.
// A sensor spec's shard count is validated and then left out: it says how
// the replica runs, not what it computes, so a replica stored at one count
// is served at any other.
func (s ReplicaSpec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Sensor != nil && s.Sensor.Shards != 0 {
		s.Sensor = clone(s.Sensor)
		s.Sensor.Shards = 0
	}
	return json.Marshal(s)
}

// Seed returns the replica's base seed (provenance for the manifest).
func (s ReplicaSpec) Seed() int64 {
	if want, _, ok := s.config(); ok && want.cfg != nil {
		return *want.cfg.seed()
	}
	return 0
}

// ReplicaResult is the wire form of one replica's outcome — the bytes the
// content-addressed store holds. The executed shard count is deliberately
// NOT part of this struct: it is how the replica ran, not what it computed
// (the planner may lower the count the spec asks for), so it travels in the
// run manifest instead (see ReplicaSpec.Run's second return).
type ReplicaResult struct {
	Kind       string           `json:"kind"`
	Blackhole  *BlackholeResult `json:"blackhole,omitempty"`
	SensorPair *SensorPair      `json:"sensor_pair,omitempty"`
	Sensor     *SensorResult    `json:"sensor,omitempty"`
}

// Run executes the replica and returns its canonical result bytes plus
// the shard count the kernel actually used (manifest provenance, not part
// of the hashed bytes).
func (s ReplicaSpec) Run() ([]byte, int, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	out, shards, err := replicaKinds[s.Kind].run(s)
	if err != nil {
		return nil, 0, err
	}
	out.Kind = s.Kind
	b, err := json.Marshal(out)
	if err != nil {
		return nil, 0, err
	}
	return b, shards, nil
}

// DecodeReplicaResult parses result bytes produced by ReplicaSpec.Run
// (directly or via the artifact store), rejecting unknown fields so a
// store populated by a newer schema fails loudly instead of folding
// zeros.
func DecodeReplicaResult(b []byte) (ReplicaResult, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r ReplicaResult
	if err := dec.Decode(&r); err != nil {
		return ReplicaResult{}, fmt.Errorf("experiment: decoding replica result: %w", err)
	}
	return r, nil
}

// hasBody reports whether the result carries the payload its Kind names
// (store bytes come from disk; a result without one must not be folded).
func (r ReplicaResult) hasBody() bool {
	k, ok := replicaKinds[r.Kind]
	return ok && k.body(r)
}

// Grid kinds: which paper sweep a GridRequest describes.
const (
	// GridBlackhole is the Fig. 7 sweep (rows × malicious counts).
	GridBlackhole = "blackhole"
	// GridSensor is the Fig. 8 sweep (rows × fault kinds, paired runs).
	GridSensor = "sensor"
	// GridCampaign is the fault-campaign sweep (rows × campaigns).
	GridCampaign = "campaign"
	// GridChurn is the membership-churn sweep (IC levels × churn rates).
	GridChurn = "churn"
)

// GridRequest is the wire form of one full experiment grid — what a
// client POSTs to the experiment service, what the repro driver submits
// per paper figure and what RunGrid evaluates in process. The paper's
// grids are defined once, in presets.go.
type GridRequest struct {
	// Name labels the grid in job listings and run manifests
	// (e.g. "fig7-blackhole").
	Name string `json:"name"`
	// Kind selects the sweep: GridBlackhole, GridSensor, GridCampaign or
	// GridChurn.
	Kind string `json:"kind"`
	// Blackhole is the base config for blackhole and campaign grids.
	Blackhole *BlackholeConfig `json:"blackhole,omitempty"`
	// Sensor is the base config for sensor grids.
	Sensor *SensorConfig `json:"sensor,omitempty"`
	// Malicious lists the blackhole grid's column counts.
	Malicious []int `json:"malicious,omitempty"`
	// Levels lists the IC dependability levels (rows are {No IC} ∪ {IC,L=l}).
	Levels []int `json:"levels,omitempty"`
	// Faults lists the sensor grid's fault-kind columns.
	Faults []sensor.FaultKind `json:"faults,omitempty"`
	// Campaigns lists the campaign grid's columns.
	Campaigns []faults.Campaign `json:"campaigns,omitempty"`
	// Churns lists the churn grid's crash-and-rejoin column counts.
	Churns []int `json:"churns,omitempty"`
	// Runs is the replica count per grid point.
	Runs int `json:"runs"`
}

// seedStride is the step of the per-column seed schedule (base + stride ×
// column + run, see column.seed): a grid of more runs than that would
// reuse the next column's seeds, so it bounds Runs.
const seedStride = 1000

// maxGridPoints bounds rows × columns × runs. A request is a few hundred
// bytes however many replicas it asks for and a ReplicaPoint is about
// 600, so the product is checked before Points builds anything; the
// paper's largest grid (Fig. 8 at 50 runs) is 2100 points.
const maxGridPoints = 100000

// Validate checks the request is a well-formed instance of its kind.
func (g *GridRequest) Validate() error {
	if g.Runs <= 0 || g.Runs > seedStride {
		return fmt.Errorf("experiment: grid %q: runs must be positive and at most %d, got %d", g.Name, seedStride, g.Runs)
	}
	// Only the kind's own column axis is non-empty in a request that passes
	// the kind checks below, and no kind has more rows than No IC plus levels.
	cols := len(g.Malicious) + len(g.Faults) + len(g.Campaigns) + len(g.Churns)
	if cells := int64(1+len(g.Levels)) * int64(cols); cells > maxGridPoints/int64(g.Runs) {
		return fmt.Errorf("experiment: grid %q: %d cells × %d runs is more than %d replicas", g.Name, cells, g.Runs, maxGridPoints)
	}
	slots := configSlots(g.Blackhole, g.Sensor)
	for _, s := range slots {
		if s.cfg != nil {
			if err := s.cfg.validBounds(); err != nil {
				return fmt.Errorf("grid %q: %w", g.Name, err)
			}
		}
	}
	for _, axis := range []struct {
		name     string
		values   []int
		min, max int
	}{{"levels", g.Levels, 1, maxLevel}, {"malicious", g.Malicious, 0, maxNodes}} {
		for _, v := range axis.values {
			if v < axis.min || v > axis.max {
				return fmt.Errorf("experiment: grid %q: %s must be between %d and %d, got %d", g.Name, axis.name, axis.min, axis.max, v)
			}
		}
	}
	k, ok := gridKinds[g.Kind]
	if !ok {
		return fmt.Errorf("experiment: grid %q: unknown kind %q", g.Name, g.Kind)
	}
	config := replicaKinds[k.replica].config
	if slots[config].cfg == nil {
		return fmt.Errorf("experiment: grid %q: kind %q needs a %s config", g.Name, g.Kind, slots[config].name)
	}
	if slots[1-config].cfg != nil || cols != k.columns(g) {
		return fmt.Errorf("experiment: grid %q: kind %q carries fields of another kind", g.Name, g.Kind)
	}
	if err := k.check(g); err != nil {
		return err
	}
	return g.distinctAxes(k)
}

// distinctAxes rejects a value that repeats on the level axis or on the
// kind's column axis. A repeated level would run two rows under one label,
// and a repeated column value folds two columns' seed sets into one cell.
func (g *GridRequest) distinctAxes(k gridKind) error {
	seen := make(map[string]bool, len(g.Levels)+k.columns(g))
	for _, row := range configRows(g.Levels) {
		if seen[row.label] {
			return fmt.Errorf("experiment: grid %q: row %q appears twice", g.Name, row.label)
		}
		seen[row.label] = true
	}
	for i := range k.columns(g) {
		label := k.column(g, i).label
		if seen[label] {
			return fmt.Errorf("experiment: grid %q: column %q appears twice", g.Name, label)
		}
		seen[label] = true
	}
	return nil
}

// ReplicaPoint is one grid cell replica: its table coordinates plus the
// self-contained spec that computes it.
type ReplicaPoint struct {
	Label string
	Row   string
	Col   string
	Spec  ReplicaSpec
}

// BaseSeed returns the grid's base seed — the start of the per-replica
// seed schedule, recorded in run manifests.
func (g *GridRequest) BaseSeed() int64 {
	switch {
	case g.Blackhole != nil:
		return g.Blackhole.Seed
	case g.Sensor != nil:
		return g.Sensor.Seed
	}
	return 0
}

// Points enumerates the grid's replicas — rows × the kind's columns × runs
// — with their seed schedule (base + column.seed + run). The order is the
// folding contract: Tables consumes results positionally, in process and
// from the artifact store alike.
func (g *GridRequest) Points() ([]ReplicaPoint, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	k := gridKinds[g.Kind]
	rows := configRows(g.Levels)
	if !k.noIC {
		rows = rows[1:]
	}
	cols := make([]column, k.columns(g))
	for i := range cols {
		cols[i] = k.column(g, i)
	}
	points := make([]ReplicaPoint, 0, len(rows)*len(cols)*g.Runs)
	for _, row := range rows {
		for _, c := range cols {
			for run := 0; run < g.Runs; run++ {
				spec := ReplicaSpec{Kind: k.replica, Blackhole: clone(g.Blackhole), Sensor: clone(g.Sensor)}
				c.edit(&spec, row)
				cfg, _, _ := spec.config()
				*cfg.cfg.seed() = g.BaseSeed() + c.seed + int64(run)
				points = append(points, ReplicaPoint{
					Label: row.label + " " + c.label + " run=" + strconv.Itoa(run),
					Row:   row.label,
					Col:   c.name,
					Spec:  spec,
				})
			}
		}
	}
	return points, nil
}

// clone returns a pointer to a copy of *p, nil for nil.
func clone[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// Tables folds result bytes (one per point, in Points order) into the
// grid's figure tables. Folding happens here, in enumeration order, for
// every caller, so a table rebuilt from the artifact store is
// byte-identical to a live sweep's.
func (g *GridRequest) Tables(results [][]byte) ([]*stats.Table, error) {
	points, err := g.Points()
	if err != nil {
		return nil, err
	}
	if len(results) != len(points) {
		return nil, fmt.Errorf("experiment: grid %q: %d results for %d points", g.Name, len(results), len(points))
	}
	shape := gridKinds[g.Kind].shape
	tables := make([]*stats.Table, len(shape.figures))
	for i, f := range shape.figures {
		tables[i] = stats.NewTable(f.title, shape.corner)
	}
	for i, p := range points {
		r, err := DecodeReplicaResult(results[i])
		if err != nil {
			return nil, fmt.Errorf("point %q: %w", p.Label, err)
		}
		if r.Kind != p.Spec.Kind || !r.hasBody() {
			return nil, fmt.Errorf("experiment: point %q: result kind %q, want %s", p.Label, r.Kind, p.Spec.Kind)
		}
		for j, f := range shape.figures {
			if v, ok := f.value(r); ok {
				tables[j].Add(p.Row, p.Col, v)
			}
		}
	}
	return tables, nil
}

// Render is the text form of the grid's tables — all of cmd/icsweep's
// stdout and the service's /tables body: StringWithCI for the figure
// tables, compact String for the campaign coverage and churn lifecycle
// counters, one blank line after each.
func (g *GridRequest) Render(tables []*stats.Table) string {
	var b bytes.Buffer
	figures := len(tables) - gridKinds[g.Kind].shape.counters
	for i, t := range tables {
		if i >= figures {
			b.WriteString(t.String())
		} else {
			b.WriteString(t.StringWithCI())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the grid's tables in long CSV form, each preceded by a
// `# <title>` comment line, for the repro analyzer's machine-readable
// output.
func (g *GridRequest) CSV(tables []*stats.Table) string {
	var b bytes.Buffer
	for _, t := range tables {
		fmt.Fprintf(&b, "# %s\n", t.Title)
		b.WriteString(t.CSV())
	}
	return b.String()
}
