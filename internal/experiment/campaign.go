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

// NewCampaignTables returns the empty campaign-sweep table bundle.
func NewCampaignTables() *CampaignTables {
	return &CampaignTables{
		Throughput: stats.NewTable("Campaign sweep: network throughput [%]", "config \\ campaign"),
		Energy:     stats.NewTable("Campaign sweep: energy consumption [J/node]", "config \\ campaign"),
		Injected:   stats.NewTable("Campaign sweep: faults injected [#/run]", "config \\ campaign"),
		Suppressed: stats.NewTable("Campaign sweep: faults suppressed by inner circle [#/run]", "config \\ campaign"),
		Leaked:     stats.NewTable("Campaign sweep: corrupted payloads leaked [#/run]", "config \\ campaign"),
		VerifiesAvoided: stats.NewTable(
			"Campaign sweep: signature verifications avoided by memo [#/run]", "config \\ campaign"),
	}
}

// CampaignPoints enumerates the campaign sweep grid: configurations
// {No IC, IC L=l...} × campaigns × runs with per-replica seeds
// base.Seed + 1000*ci + run (ci = campaign index), mirroring
// BlackholeSweep's 1000*m + run. Enumeration order is the folding
// contract shared with the experiment service.
func CampaignPoints(base BlackholeConfig, campaigns []faults.Campaign, levels []int, runs int) []GridPoint[BlackholeConfig] {
	var points []GridPoint[BlackholeConfig]
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
				points = append(points, GridPoint[BlackholeConfig]{
					Label:  fmt.Sprintf("%s campaign=%s run=%d", row.label, campaigns[ci].Name, run),
					Row:    row.label,
					Col:    campaigns[ci].Name,
					Config: cfg,
				})
			}
		}
	}
	return points
}

// FoldCampaign folds one replica's result into the campaign tables.
func FoldCampaign(t *CampaignTables, row, col string, res BlackholeResult) {
	t.Throughput.Add(row, col, res.Throughput)
	t.Energy.Add(row, col, res.EnergyPerNode)
	t.Injected.Add(row, col, float64(res.FaultsInjected))
	t.Suppressed.Add(row, col, float64(res.FaultsSuppressed))
	t.Leaked.Add(row, col, float64(res.FaultsLeaked))
	t.VerifiesAvoided.Add(row, col, float64(res.VerifiesAvoided))
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

// CampaignSweep runs every (configuration row × campaign × run) replica
// on the parallel worker pool: rows are {No IC} plus {IC, L=l} for each
// level, columns are the campaign names. Per-replica seeds follow
// base.Seed + 1000*ci + run (ci = campaign index), mirroring
// BlackholeSweep's 1000*m + run, so a preset sweep whose campaign indices
// equal the legacy malicious counts reproduces the legacy tables byte for
// byte. Results fold in enumeration order, making the output identical at
// any IC_WORKERS count.
func CampaignSweep(base BlackholeConfig, campaigns []faults.Campaign, levels []int, runs int, progress io.Writer) (*CampaignTables, error) {
	if err := ValidateCampaignSweep(base, campaigns); err != nil {
		return nil, err
	}
	t := NewCampaignTables()
	err := SweepGrid(CampaignPoints(base, campaigns, levels, runs), RunBlackhole, progress,
		func(label string, res BlackholeResult) string {
			return fmt.Sprintf("%s: throughput=%.1f%% injected=%d suppressed=%d leaked=%d\n",
				label, res.Throughput, res.FaultsInjected, res.FaultsSuppressed, res.FaultsLeaked)
		},
		func(row, col string, res BlackholeResult) {
			FoldCampaign(t, row, col, res)
		})
	if err != nil {
		return nil, err
	}
	return t, nil
}
