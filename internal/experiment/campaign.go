package experiment

import (
	"fmt"
	"io"

	"innercircle/internal/faults"
	"innercircle/internal/stats"
)

// CampaignTables bundles the outputs of a fault-campaign sweep: the
// classic throughput/energy tables plus the neutralization-coverage
// tables that turn the paper's qualitative claim — errors and attacks are
// suppressed at the source — into a measurable regression surface.
type CampaignTables struct {
	Throughput *stats.Table // delivered intact / sent [%]
	Energy     *stats.Table // joules per node
	Injected   *stats.Table // fault actions taken per run
	Suppressed *stats.Table // neutralized by the inner circle per run
	Leaked     *stats.Table // corrupted payloads delivered per run
	// VerifiesAvoided is diagnostic, not modeled: signature checks served
	// by the per-replica verification memo. It feeds none of the five
	// modeled tables above.
	VerifiesAvoided *stats.Table
}

// campaignShape lists the campaign tables in CampaignTables field order;
// the four coverage counters render compactly.
var campaignShape = gridShape{corner: "config \\ campaign", counters: 4, figures: []figure{
	{"Campaign sweep: network throughput [%]", func(r ReplicaResult) (float64, bool) { return r.Blackhole.Throughput, true }},
	{"Campaign sweep: energy consumption [J/node]", func(r ReplicaResult) (float64, bool) { return r.Blackhole.EnergyPerNode, true }},
	{"Campaign sweep: faults injected [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Blackhole.FaultsInjected), true }},
	{"Campaign sweep: faults suppressed by inner circle [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Blackhole.FaultsSuppressed), true }},
	{"Campaign sweep: corrupted payloads leaked [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Blackhole.FaultsLeaked), true }},
	{"Campaign sweep: signature verifications avoided by memo [#/run]", func(r ReplicaResult) (float64, bool) { return float64(r.Blackhole.VerifiesAvoided), true }},
}}

// CampaignPoints enumerates the campaign sweep grid: configurations
// {No IC, IC L=l...} × campaigns × runs with per-replica seeds
// base.Seed + 1000*ci + run (ci = campaign index), mirroring
// BlackholeSweep's 1000*m + run. Enumeration order is the folding
// contract shared with the experiment service.
func CampaignPoints(base BlackholeConfig, campaigns []faults.Campaign, levels []int, runs int) []ReplicaPoint {
	var points []ReplicaPoint
	for _, row := range configRows(levels) {
		for ci := range campaigns {
			for run := 0; run < runs; run++ {
				cfg := base
				cfg.IC = row.ic
				cfg.L = row.level
				if cfg.L == 0 {
					cfg.L = 1
				}
				cfg.Malicious = 0
				cfg.GrayProb = 0
				cfg.Campaign = &campaigns[ci]
				cfg.Seed = base.Seed + int64(1000*ci+run)
				points = append(points, ReplicaPoint{
					Label: fmt.Sprintf("%s campaign=%s run=%d", row.label, campaigns[ci].Name, run),
					Row:   row.label,
					Col:   campaigns[ci].Name,
					Spec:  ReplicaSpec{Kind: ReplicaBlackhole, Blackhole: &cfg},
				})
			}
		}
	}
	return points
}

// ValidateCampaignSweep checks the inputs a campaign sweep shares with
// the experiment service's grid layer: at least one valid campaign and
// no Tracer on the base config (a shared one races across workers).
func ValidateCampaignSweep(base BlackholeConfig, campaigns []faults.Campaign) error {
	if len(campaigns) == 0 {
		return fmt.Errorf("experiment: campaign sweep needs at least one campaign")
	}
	if base.Tracer != nil {
		return fmt.Errorf("experiment: sweep config must not carry a Tracer — each replica needs its own (a shared one races across workers)")
	}
	for i := range campaigns {
		if err := campaigns[i].Validate(); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	return nil
}

// CampaignSweep runs a campaign grid through RunGrid: rows are {No IC}
// plus {IC, L=l} for each level, columns the campaign names. A preset
// sweep whose campaign indices equal the legacy malicious counts
// reproduces the BlackholeSweep tables byte for byte (same seed schedule).
func CampaignSweep(base BlackholeConfig, campaigns []faults.Campaign, levels []int, runs int, progress io.Writer) (*CampaignTables, error) {
	t, err := RunGrid(&GridRequest{Name: "campaign", Kind: GridCampaign,
		Blackhole: &base, Campaigns: campaigns, Levels: levels, Runs: runs}, progress)
	if err != nil {
		return nil, err
	}
	return &CampaignTables{Throughput: t[0], Energy: t[1], Injected: t[2],
		Suppressed: t[3], Leaked: t[4], VerifiesAvoided: t[5]}, nil
}
