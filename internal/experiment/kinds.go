// The two kind tables: the only place a kind name maps to behaviour.
// replicaKinds says what one ReplicaSpec.Kind runs and carries back,
// gridKinds what one GridRequest.Kind enumerates, checks, folds and
// reports. The generic code in grid.go and sweep.go looks an entry up and
// loops; adding a sweep is adding an entry here, a preset constructor in
// presets.go and a subcommand's flags in cmd/icsweep.
package experiment

import (
	"fmt"
	"strconv"

	"innercircle/internal/scenario"
)

// replicaConfig is what the two experiment configs have in common as the
// body of a replica spec or a grid request.
type replicaConfig interface {
	// validBounds checks every numeric field against its ceiling.
	validBounds() error
	seed() *int64
}

// The two config slots a ReplicaSpec and a GridRequest share, as indices
// into configSlots; a kind requires one and forbids the other (1 - index).
const (
	cfgBlackhole = iota
	cfgSensor
)

// configSlot is one config field: its JSON key and the config, nil when
// the field is absent.
type configSlot struct {
	name string
	cfg  replicaConfig
}

func configSlots(bh *BlackholeConfig, sn *SensorConfig) [2]configSlot {
	slots := [2]configSlot{{name: "blackhole"}, {name: "sensor"}}
	if bh != nil {
		slots[cfgBlackhole].cfg = bh
	}
	if sn != nil {
		slots[cfgSensor].cfg = sn
	}
	return slots
}

// replicaKind describes one ReplicaSpec.Kind.
type replicaKind struct {
	// config is the slot the kind requires.
	config int
	// run executes a validated spec and returns the result body (Kind is
	// filled in by the caller) plus the shard count the kernel used.
	run func(s ReplicaSpec) (ReplicaResult, int, error)
	// body reports whether a result carries the payload the kind names.
	body func(r ReplicaResult) bool
}

var replicaKinds = map[string]replicaKind{
	ReplicaBlackhole: {
		config: cfgBlackhole,
		run: func(s ReplicaSpec) (ReplicaResult, int, error) {
			res, err := RunBlackhole(*s.Blackhole)
			return ReplicaResult{Blackhole: &res}, 1, err // the config has no shard count to ask with
		},
		body: func(r ReplicaResult) bool { return r.Blackhole != nil },
	},
	ReplicaSensorPair: {
		config: cfgSensor,
		run: func(s ReplicaSpec) (ReplicaResult, int, error) {
			pair, shards, err := runSensorPairShards(*s.Sensor)
			return ReplicaResult{SensorPair: &pair}, shards, err
		},
		body: func(r ReplicaResult) bool { return r.SensorPair != nil },
	},
	ReplicaSensor: {
		config: cfgSensor,
		run: func(s ReplicaSpec) (ReplicaResult, int, error) {
			res, shards, err := runSensorShards(*s.Sensor)
			return ReplicaResult{Sensor: &res}, shards, err
		},
		body: func(r ReplicaResult) bool { return r.Sensor != nil },
	},
}

// column is one value of a grid kind's column axis.
type column struct {
	// name is the table column; label is "axis=value", the middle of a
	// point's label.
	name, label string
	// seed is the column's offset in the seed schedule: a point's seed is
	// base + seed + run.
	seed int64
	// edit turns a copy of the base config into the replica's config at
	// the given row (the seed is set by the caller).
	edit func(s *ReplicaSpec, row configRow)
}

// figure is one output table of a grid kind: its title and the value one
// replica result adds to its cell (ok false: none — a run that detected
// no target has no latency).
type figure struct {
	title string
	value func(r ReplicaResult) (v float64, ok bool)
}

// gridShape is what a grid kind folds into: the corner label of its
// tables and the figures in render order, the last counters of which are
// per-run counts, rendered without confidence intervals.
type gridShape struct {
	corner   string
	counters int
	figures  []figure
}

// gridKind describes one GridRequest.Kind.
type gridKind struct {
	// replica is the kind of the specs its points carry.
	replica string
	// noIC says whether the rows start with the No-IC baseline.
	noIC bool
	// columns is the length of the kind's own column axis; every other
	// axis must be empty.
	columns func(g *GridRequest) int
	// column describes the i-th value of that axis.
	column func(g *GridRequest, i int) column
	// check is the kind's own axis checks, run after the shared ones.
	check func(g *GridRequest) error
	shape gridShape
	// summary is one finished replica's line in the progress stream.
	summary func(r ReplicaResult) string
}

// setRow applies a configuration row of the Fig. 7 network: a level of 0
// (the No-IC row) leaves the level at 1.
func (cfg *BlackholeConfig) setRow(row configRow) {
	cfg.IC = row.ic
	cfg.L = max(row.level, 1)
}

// detected reports whether the with-target run detected any target;
// latency and localization error only exist then.
func detected(r ReplicaResult) bool { return r.SensorPair.Target.Targets > r.SensorPair.Target.Missed }

var gridKinds = map[string]gridKind{
	// Fig. 7: {No IC, IC L=l...} × malicious-node counts, seeds
	// base + 1000·malicious + run.
	GridBlackhole: {
		replica: ReplicaBlackhole,
		noIC:    true,
		columns: func(g *GridRequest) int { return len(g.Malicious) },
		column: func(g *GridRequest, i int) column {
			m := g.Malicious[i]
			return column{name: strconv.Itoa(m), label: "malicious=" + strconv.Itoa(m), seed: int64(seedStride * m),
				edit: func(s *ReplicaSpec, row configRow) {
					s.Blackhole.setRow(row)
					s.Blackhole.Malicious = m
				}}
		},
		check: func(g *GridRequest) error {
			if len(g.Malicious) == 0 {
				return fmt.Errorf("experiment: grid %q: kind %q needs malicious counts", g.Name, g.Kind)
			}
			return nil
		},
		shape: gridShape{corner: "config \\ #malicious", figures: []figure{
			{"Fig. 7(a) Network throughput [%]", func(r ReplicaResult) (float64, bool) { return r.Blackhole.Throughput, true }},
			{"Fig. 7(b) Energy consumption [J/node]", func(r ReplicaResult) (float64, bool) { return r.Blackhole.EnergyPerNode, true }},
		}},
		summary: func(r ReplicaResult) string {
			return fmt.Sprintf("throughput=%.1f%% energy=%.2f J", r.Blackhole.Throughput, r.Blackhole.EnergyPerNode)
		},
	},

	// Fig. 8: {No IC, IC L=l...} × fault models, seeds base + run in every
	// column. One point covers a replica's paired runs (with and without
	// the target).
	GridSensor: {
		replica: ReplicaSensorPair,
		noIC:    true,
		columns: func(g *GridRequest) int { return len(g.Faults) },
		column: func(g *GridRequest, i int) column {
			fault := g.Faults[i]
			return column{name: fault.String(), label: "fault=" + fault.String(),
				edit: func(s *ReplicaSpec, row configRow) {
					s.Sensor.IC = row.ic
					if row.level > 0 {
						s.Sensor.L = row.level
					}
					s.Sensor.Fault = fault
				}}
		},
		check: func(g *GridRequest) error {
			if len(g.Faults) == 0 {
				return fmt.Errorf("experiment: grid %q: kind %q needs fault kinds", g.Name, g.Kind)
			}
			return nil
		},
		shape: gridShape{corner: "config \\ fault", figures: []figure{
			{"Fig. 8(a) Miss alarm probability [%]", func(r ReplicaResult) (float64, bool) { return 100 * r.SensorPair.Target.MissAlarm, true }},
			{"Fig. 8(b) False alarm probability [% per sensor-epoch]", func(r ReplicaResult) (float64, bool) { return r.SensorPair.Target.FalseAlarmProb, true }},
			{"Fig. 8(c) Energy consumption with target [J/node]", func(r ReplicaResult) (float64, bool) { return r.SensorPair.Target.EnergyPerNode, true }},
			{"Fig. 8(d) Energy consumption with no target [J/node]", func(r ReplicaResult) (float64, bool) { return r.SensorPair.NoTarget.EnergyPerNode, true }},
			{"Fig. 8(e) Target detection latency [s]", func(r ReplicaResult) (float64, bool) { return r.SensorPair.Target.DetectionLatency, detected(r) }},
			{"Fig. 8(f) Target localization error [m]", func(r ReplicaResult) (float64, bool) { return r.SensorPair.Target.LocalizationErr, detected(r) }},
		}},
		summary: func(r ReplicaResult) string {
			t := r.SensorPair.Target
			return fmt.Sprintf("miss=%.0f%% false=%.2f%% lat=%.2fs loc=%.1fm E=%.2fJ/%.2fJ",
				100*t.MissAlarm, t.FalseAlarmProb, t.DetectionLatency, t.LocalizationErr,
				t.EnergyPerNode, r.SensorPair.NoTarget.EnergyPerNode)
		},
	},

	// The fault-campaign sweep: {No IC, IC L=l...} × campaigns, seeds
	// base + 1000·index + run, so a preset sweep whose campaign indices
	// equal Fig. 7's malicious counts reproduces its tables byte for byte.
	// The classic throughput/energy tables plus the neutralization-coverage
	// counters (the last, verifications avoided, is diagnostic, not
	// modeled).
	GridCampaign: {
		replica: ReplicaBlackhole,
		noIC:    true,
		columns: func(g *GridRequest) int { return len(g.Campaigns) },
		column: func(g *GridRequest, i int) column {
			camp := &g.Campaigns[i] // read-only, shared by the column's replicas
			return column{name: camp.Name, label: "campaign=" + camp.Name, seed: int64(seedStride * i),
				edit: func(s *ReplicaSpec, row configRow) {
					s.Blackhole.setRow(row)
					s.Blackhole.Malicious = 0
					s.Blackhole.GrayProb = 0
					s.Blackhole.Campaign = camp
				}}
		},
		check: func(g *GridRequest) error {
			if len(g.Campaigns) == 0 {
				return fmt.Errorf("grid %q: experiment: campaign sweep needs at least one campaign", g.Name)
			}
			for i := range g.Campaigns {
				if err := g.Campaigns[i].Validate(); err != nil {
					return fmt.Errorf("grid %q: experiment: %w", g.Name, err)
				}
			}
			return nil
		},
		shape: gridShape{corner: "config \\ campaign", counters: 4, figures: []figure{
			{"Campaign sweep: network throughput [%]", func(r ReplicaResult) (float64, bool) { return r.Blackhole.Throughput, true }},
			{"Campaign sweep: energy consumption [J/node]", func(r ReplicaResult) (float64, bool) { return r.Blackhole.EnergyPerNode, true }},
			{"Campaign sweep: faults injected [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Blackhole.FaultsInjected), true }},
			{"Campaign sweep: faults suppressed by inner circle [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Blackhole.FaultsSuppressed), true }},
			{"Campaign sweep: corrupted payloads leaked [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Blackhole.FaultsLeaked), true }},
			{"Campaign sweep: signature verifications avoided by memo [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Blackhole.VerifiesAvoided), true }},
		}},
		summary: func(r ReplicaResult) string {
			b := r.Blackhole
			return fmt.Sprintf("throughput=%.1f%% injected=%d suppressed=%d leaked=%d",
				b.Throughput, b.FaultsInjected, b.FaultsSuppressed, b.FaultsLeaked)
		},
	},

	// The membership-churn sweep: {IC L=l...} × crash-and-rejoin counts,
	// seeds base + 1000·index + run. There is no No-IC row: churn is a
	// lifecycle of the inner circle. The churn=0 column carries a nil Churn
	// — it is exactly Fig. 8's IC replica, which the determinism tests pin
	// byte for byte; the others copy the base schedule (or the default one)
	// with CrashRejoin overridden, so a sweep can fix the window, downtime
	// and reshare policy while scaling the rate axis. What the detection
	// metrics cost under churn, plus the lifecycle accounting that shows
	// the neutralization machinery cycling.
	GridChurn: {
		replica: ReplicaSensor,
		columns: func(g *GridRequest) int { return len(g.Churns) },
		column: func(g *GridRequest, i int) column {
			churn := g.Churns[i]
			label := "churn=" + strconv.Itoa(churn)
			return column{name: label, label: label, seed: int64(seedStride * i),
				edit: func(s *ReplicaSpec, row configRow) {
					s.Sensor.IC = true
					s.Sensor.L = row.level
					base := s.Sensor.Churn
					s.Sensor.Churn = nil
					if churn > 0 {
						var c scenario.Churn
						if base != nil {
							c = *base
						}
						c.CrashRejoin = churn
						s.Sensor.Churn = &c
					}
				}}
		},
		check: func(g *GridRequest) error {
			if len(g.Levels) == 0 || len(g.Churns) == 0 {
				return fmt.Errorf("grid %q: experiment: churn sweep needs at least one level and one churn rate", g.Name)
			}
			for _, c := range g.Churns {
				if c < 0 || c > maxNodes {
					return fmt.Errorf("grid %q: experiment: churn rate must be between 0 and %d, got %d", g.Name, maxNodes, c)
				}
			}
			return nil
		},
		shape: gridShape{corner: "config \\ churn", counters: 4, figures: []figure{
			{"Churn sweep: miss alarm probability [%]", func(r ReplicaResult) (float64, bool) { return 100 * r.Sensor.MissAlarm, true }},
			{"Churn sweep: energy consumption [J/node]", func(r ReplicaResult) (float64, bool) { return r.Sensor.EnergyPerNode, true }},
			{"Churn sweep: membership transitions [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Sensor.ChurnEvents), true }},
			{"Churn sweep: reshares executed [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Sensor.ChurnReshares), true }},
			{"Churn sweep: vote rounds aborted [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Sensor.RoundsAborted), true }},
			{"Churn sweep: final key epoch [#]", func(r ReplicaResult) (float64, bool) { return float64(r.Sensor.MembershipEpoch), true }},
		}},
		summary: func(r ReplicaResult) string {
			s := r.Sensor
			return fmt.Sprintf("miss=%.0f%% events=%d reshares=%d aborted=%d epoch=%d E=%.2fJ",
				100*s.MissAlarm, s.ChurnEvents, s.ChurnReshares, s.RoundsAborted, s.MembershipEpoch, s.EnergyPerNode)
		},
	},
}
