package experiment

import (
	"testing"

	"innercircle/internal/faults"
	"innercircle/internal/stats"
)

// tinyCampaign is a reduced configuration for campaign tests: small
// enough that each replica runs in well under a second, large enough that
// every fault class still fires.
func tinyCampaign() BlackholeConfig {
	cfg := PaperBlackholeConfig()
	cfg.Nodes = 20
	cfg.Connections = 5
	cfg.SimTime = 20
	cfg.Seed = 11
	return cfg
}

func runCampaign(t *testing.T, c faults.Campaign, ic bool, l int) BlackholeResult {
	t.Helper()
	cfg := tinyCampaign()
	cfg.IC = ic
	cfg.L = l
	cfg.Campaign = &c
	res, err := RunBlackhole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCampaignBlackholePresetMatchesLegacy pins the preset-equivalence
// contract: Campaign=&BlackholePreset(m) is the same adversary as the
// legacy Malicious=m knob, down to every RNG draw.
func TestCampaignBlackholePresetMatchesLegacy(t *testing.T) {
	for _, ic := range []bool{false, true} {
		legacyCfg := tinyCampaign()
		legacyCfg.IC = ic
		legacyCfg.L = 1
		legacyCfg.Malicious = 2
		legacy, err := RunBlackhole(legacyCfg)
		if err != nil {
			t.Fatal(err)
		}
		preset := faults.BlackholePreset(2)
		presetCfg := tinyCampaign()
		presetCfg.IC = ic
		presetCfg.L = 1
		presetCfg.Campaign = &preset
		got, err := RunBlackhole(presetCfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != legacy {
			t.Errorf("ic=%v: preset result %+v != legacy %+v", ic, got, legacy)
		}
	}
}

func TestCampaignGrayholePresetMatchesLegacy(t *testing.T) {
	legacyCfg := tinyCampaign()
	legacyCfg.Malicious = 2
	legacyCfg.GrayProb = 0.5
	legacy, err := RunBlackhole(legacyCfg)
	if err != nil {
		t.Fatal(err)
	}
	preset := faults.GrayholePreset(2, 0.5)
	presetCfg := tinyCampaign()
	presetCfg.Campaign = &preset
	got, err := RunBlackhole(presetCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != legacy {
		t.Errorf("preset result %+v != legacy %+v", got, legacy)
	}
}

// TestCampaignSweepMatchesLegacySweep checks the seeding contract: a
// campaign sweep over {BlackholePreset(0), BlackholePreset(1)} lands on
// the same per-cell samples as the legacy sweep over malicious counts
// {0, 1}, because campaign index ci stands in for m in the seed formula.
func TestCampaignSweepMatchesLegacySweep(t *testing.T) {
	base := tinyCampaign()
	legacy := mustRunGrid(t, &GridRequest{Kind: GridBlackhole, Blackhole: &base,
		Malicious: []int{0, 1}, Levels: []int{1}, Runs: 2})
	thr, eng := legacy[0], legacy[1]
	tables := mustRunGrid(t, &GridRequest{Kind: GridCampaign, Blackhole: &base,
		Campaigns: []faults.Campaign{faults.BlackholePreset(0), faults.BlackholePreset(1)},
		Levels:    []int{1}, Runs: 2})
	check := func(legacy, campaign *stats.Table, legacyCol, campaignCol string) {
		t.Helper()
		for _, row := range legacy.Rows() {
			want := legacy.Mean(row, legacyCol)
			got := campaign.Mean(row, campaignCol)
			if got != want {
				t.Errorf("%s[%s,%s] = %v, legacy %v", campaign.Title, row, campaignCol, got, want)
			}
		}
	}
	check(thr, tables[0], "0", "blackhole-0")
	check(thr, tables[0], "1", "blackhole-1")
	check(eng, tables[1], "0", "blackhole-0")
	check(eng, tables[1], "1", "blackhole-1")
}

// TestCampaignSweepWorkerInvariant pins the determinism contract for the
// new sweep: same seed and campaign, byte-identical tables at any worker
// count.
func TestCampaignSweepWorkerInvariant(t *testing.T) {
	mixed := faults.Campaign{Name: "mixed", Entries: []faults.Entry{
		{Fault: faults.Corrupt, Params: faults.Params{P: 0.25}, Targets: faults.Selector{Count: 2}},
		{Fault: faults.Drop, Params: faults.Params{P: 0.5}, Targets: faults.Selector{Nodes: []int{3}}},
		{Fault: faults.Spoof, Targets: faults.Selector{Nodes: []int{4}}},
		{Fault: faults.Byzantine, Targets: faults.Selector{Nodes: []int{5}}},
	}}
	sweep := func() []*stats.Table {
		base := tinyCampaign()
		return mustRunGrid(t, &GridRequest{Kind: GridCampaign, Blackhole: &base,
			Campaigns: []faults.Campaign{mixed}, Levels: []int{1}, Runs: 2})
	}
	t.Setenv("IC_WORKERS", "1")
	serial := sweep()
	t.Setenv("IC_WORKERS", "8")
	parallel := sweep()
	// Throughput, energy, injected, suppressed, leaked (the sixth table,
	// verifications avoided, is diagnostic).
	for i := range serial[:5] {
		want, got := serial[i].StringWithCI(), parallel[i].StringWithCI()
		if got != want {
			t.Errorf("table %q differs between IC_WORKERS=1 and 8:\n--- serial ---\n%s--- parallel ---\n%s",
				serial[i].Title, want, got)
		}
	}
}

// The tests below are the neutralization acceptance matrix: for each fault
// class, the injection counter proves the fault fired and the
// suppression/leak counters prove the inner circle neutralized it where
// the paper predicts (§5).

func TestCampaignCorruptLeaksWithoutICSuppressedWithIC(t *testing.T) {
	noIC := runCampaign(t, faults.CorruptPreset(3, 0.25), false, 1)
	if noIC.FaultsInjected == 0 {
		t.Fatal("corrupt preset injected nothing")
	}
	if noIC.FaultsLeaked == 0 {
		t.Fatal("without IC, corrupted payloads should reach applications")
	}
	if noIC.FaultsSuppressed != 0 {
		t.Fatalf("no inner circle, yet %d faults suppressed", noIC.FaultsSuppressed)
	}
	// The inner circle verifies signature-bearing protocol traffic, so
	// corrupted beacons/votes are rejected (suppression counter). Corrupted
	// *application* payloads are not covered by those signatures and still
	// leak — the paper's guarantee is about the control plane.
	ic := runCampaign(t, faults.CorruptPreset(3, 0.25), true, 1)
	if ic.FaultsInjected == 0 {
		t.Fatal("corrupt preset injected nothing under IC")
	}
	if ic.FaultsSuppressed == 0 {
		t.Fatal("IC should reject corrupted signatures (suppression counter is zero)")
	}
}

func TestCampaignSpoofSuppressedByAuthenticatedBeacons(t *testing.T) {
	ic := runCampaign(t, faults.SpoofPreset(2), true, 1)
	if ic.FaultsInjected == 0 {
		t.Fatal("spoof preset forged no beacons")
	}
	if ic.FaultsSuppressed == 0 {
		t.Fatal("authenticated STS should reject forged beacons (suppression counter is zero)")
	}
}

func TestCampaignByzantineVotesSuppressed(t *testing.T) {
	// Voting activity depends on what the run's detections trigger, so this
	// uses a seed whose attacker draw participates in several rounds. (The
	// deterministic per-round demonstration lives in the vote package
	// tests; this checks the counters thread end to end.)
	cfg := tinyCampaign()
	cfg.Seed = 42
	cfg.IC = true
	cfg.L = 1
	c := faults.ByzantinePreset(2)
	cfg.Campaign = &c
	ic, err := RunBlackhole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ic.FaultsInjected == 0 {
		t.Fatal("byzantine preset told no lies")
	}
	if ic.FaultsSuppressed == 0 {
		t.Fatal("corrupt partial signatures should be rejected (suppression counter is zero)")
	}
}

func TestCampaignDuplicateBeaconsRejectedAsReplays(t *testing.T) {
	dup := faults.Campaign{Name: "dup", Entries: []faults.Entry{
		{Fault: faults.Duplicate, Targets: faults.Selector{Count: 3}},
	}}
	ic := runCampaign(t, dup, true, 1)
	if ic.FaultsInjected == 0 {
		t.Fatal("duplicate preset duplicated nothing")
	}
	if ic.FaultsSuppressed == 0 {
		t.Fatal("replayed beacons should be rejected by the sequence check (suppression counter is zero)")
	}
}

func TestCampaignBlackholeNeutralized(t *testing.T) {
	noIC := runCampaign(t, faults.BlackholePreset(3), false, 1)
	ic := runCampaign(t, faults.BlackholePreset(3), true, 1)
	if noIC.FaultsInjected == 0 || ic.FaultsInjected == 0 {
		t.Fatalf("blackhole preset took no attack actions (%d / %d)", noIC.FaultsInjected, ic.FaultsInjected)
	}
	if ic.Throughput < 2*noIC.Throughput {
		t.Fatalf("IC throughput %.1f%% not clearly above attacked No-IC %.1f%%", ic.Throughput, noIC.Throughput)
	}
}

func TestCampaignChurnTolerated(t *testing.T) {
	// Crash/recovery churn is tolerated (routes re-form), not suppressed:
	// the run completes with traffic flowing and a positive injection count.
	ic := runCampaign(t, faults.ChurnPreset(2, 10, 4), true, 1)
	if ic.FaultsInjected == 0 {
		t.Fatal("churn preset swallowed nothing")
	}
	if ic.Throughput <= 0 {
		t.Fatal("network did not survive crash/recovery churn")
	}
}

func TestCampaignDropDegradesGracefully(t *testing.T) {
	ic := runCampaign(t, faults.DropPreset(2, 0.5), true, 1)
	if ic.FaultsInjected == 0 {
		t.Fatal("drop preset dropped nothing")
	}
	if ic.Throughput <= 0 {
		t.Fatal("network did not survive lossy nodes")
	}
}

// The signature-verification memo (internal/crypto/sigcache) caches
// verdicts only; modeled energy and delay are charged per check whether or
// not the memo answers it (vote.TestMemoDoesNotChangeOutcomes pins that at
// the service). What is left to check at the top of the stack is that the
// memo is wired in: the diagnostic verifications-avoided table must show
// avoided work under an IC configuration, and none without a voting service.
func TestSweepReportsVerifiesAvoided(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	base := PaperBlackholeConfig()
	base.Nodes = 25
	base.SimTime = 25
	base.Seed = 79
	tables := mustRunGrid(t, &GridRequest{Kind: GridCampaign, Blackhole: &base,
		Campaigns: []faults.Campaign{faults.BlackholePreset(2)}, Levels: []int{1}, Runs: 1})
	avoided := tables[5] // signature verifications avoided by memo
	for _, row := range avoided.Rows() {
		var sum float64
		for _, col := range avoided.Cols() {
			sum += avoided.Mean(row, col)
		}
		if ic := row != "No IC"; ic != (sum > 0) {
			t.Errorf("row %q: %g verifications avoided", row, sum)
		}
	}
}
