package experiment

import (
	"fmt"
	"io"

	"innercircle/internal/scenario"
	"innercircle/internal/stats"
)

// ChurnTables bundles the outputs of a membership-churn sweep: what the
// paper's detection metrics cost under churn, plus the lifecycle
// accounting that shows the neutralization machinery actually cycling
// (reshares executed, rounds drained, final key epoch).
type ChurnTables struct {
	Miss     *stats.Table // miss alarm probability [%]
	Energy   *stats.Table // joules per node
	Events   *stats.Table // effective membership transitions per run
	Reshares *stats.Table // reshares executed per run
	Aborted  *stats.Table // vote rounds drained by transitions per run
	Epoch    *stats.Table // final membership epoch per run
}

// churnShape lists the churn tables in ChurnTables field order; the four
// lifecycle counters render compactly.
var churnShape = gridShape{corner: "config \\ churn", counters: 4, figures: []figure{
	{"Churn sweep: miss alarm probability [%]", func(r ReplicaResult) (float64, bool) { return 100 * r.Sensor.MissAlarm, true }},
	{"Churn sweep: energy consumption [J/node]", func(r ReplicaResult) (float64, bool) { return r.Sensor.EnergyPerNode, true }},
	{"Churn sweep: membership transitions [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Sensor.ChurnEvents), true }},
	{"Churn sweep: reshares executed [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Sensor.ChurnReshares), true }},
	{"Churn sweep: vote rounds aborted [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Sensor.RoundsAborted), true }},
	{"Churn sweep: final key epoch [#]", func(r ReplicaResult) (float64, bool) { return float64(r.Sensor.MembershipEpoch), true }},
}}

// ChurnPoints enumerates the churn sweep grid: IC configurations at each
// dependability level × crash-and-rejoin counts × runs, with per-replica
// seeds base.Seed + 1000*ci + run (ci = churn-rate index), mirroring
// CampaignPoints' schedule. The churn=0 column carries a nil Churn — it
// is exactly the seed sensor sweep's IC replica, which the determinism
// tests pin byte for byte. Non-zero columns copy base.Churn (or the
// default schedule) with CrashRejoin overridden, so a sweep can fix the
// window, downtime, and reshare policy while scaling the rate axis.
// There is no No-IC row: churn is a lifecycle of the inner circle.
func ChurnPoints(base SensorConfig, levels []int, churns []int, runs int) []ReplicaPoint {
	var points []ReplicaPoint
	for _, level := range levels {
		row := fmt.Sprintf("IC, L=%d", level)
		for ci, churn := range churns {
			for run := 0; run < runs; run++ {
				cfg := base
				cfg.IC = true
				cfg.L = level
				cfg.Seed = base.Seed + int64(1000*ci+run)
				cfg.Churn = nil
				if churn > 0 {
					var c scenario.Churn
					if base.Churn != nil {
						c = *base.Churn
					}
					c.CrashRejoin = churn
					cfg.Churn = &c
				}
				points = append(points, ReplicaPoint{
					Label: fmt.Sprintf("%s churn=%d run=%d", row, churn, run),
					Row:   row,
					Col:   fmt.Sprintf("churn=%d", churn),
					Spec:  ReplicaSpec{Kind: ReplicaSensor, Sensor: &cfg},
				})
			}
		}
	}
	return points
}

// ValidateChurnSweep checks the inputs a churn sweep shares with the
// experiment service's grid layer.
func ValidateChurnSweep(base SensorConfig, levels, churns []int) error {
	if len(levels) == 0 || len(churns) == 0 {
		return fmt.Errorf("experiment: churn sweep needs at least one level and one churn rate")
	}
	for _, c := range churns {
		if c < 0 || c > maxNodes {
			return fmt.Errorf("experiment: churn rate must be between 0 and %d, got %d", maxNodes, c)
		}
	}
	return nil
}

// ChurnSweep runs a churn grid through RunGrid: rows are {IC, L=l},
// columns the crash-and-rejoin counts. Active churn pins every replica to
// one kernel and churn=0 replicas are shard-invariant by the kernel
// contract, so the tables are identical at any base.Shards count too.
func ChurnSweep(base SensorConfig, levels, churns []int, runs int, progress io.Writer) (*ChurnTables, error) {
	t, err := RunGrid(&GridRequest{Name: "churn", Kind: GridChurn,
		Sensor: &base, Levels: levels, Churns: churns, Runs: runs}, progress)
	if err != nil {
		return nil, err
	}
	return &ChurnTables{Miss: t[0], Energy: t[1], Events: t[2], Reshares: t[3], Aborted: t[4], Epoch: t[5]}, nil
}
