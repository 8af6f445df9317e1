package experiment

import (
	"strings"
	"testing"

	"innercircle/internal/sensor"
)

// smallBlackhole is a reduced Fig. 7 configuration that keeps the test
// suite fast while preserving the qualitative behaviour.
func smallBlackhole() BlackholeConfig {
	cfg := PaperBlackholeConfig()
	cfg.Nodes = 30
	cfg.SimTime = 60
	cfg.Seed = 11
	return cfg
}

func TestBlackholeAttackCollapsesThroughput(t *testing.T) {
	clean := smallBlackhole()
	cleanRes, err := RunBlackhole(clean)
	if err != nil {
		t.Fatal(err)
	}
	attacked := smallBlackhole()
	attacked.Malicious = 3
	attRes, err := RunBlackhole(attacked)
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes.Throughput < 40 {
		t.Fatalf("clean throughput = %.1f%%, want reasonable delivery", cleanRes.Throughput)
	}
	if attRes.Throughput > cleanRes.Throughput/2 {
		t.Fatalf("attack did not bite: %.1f%% vs clean %.1f%%", attRes.Throughput, cleanRes.Throughput)
	}
}

func TestBlackholeICNeutralizes(t *testing.T) {
	attackedNoIC := smallBlackhole()
	attackedNoIC.Malicious = 3
	noIC, err := RunBlackhole(attackedNoIC)
	if err != nil {
		t.Fatal(err)
	}
	attackedIC := attackedNoIC
	attackedIC.IC = true
	attackedIC.L = 1
	ic, err := RunBlackhole(attackedIC)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Throughput < 2*noIC.Throughput {
		t.Fatalf("IC throughput %.1f%% not clearly above attacked No-IC %.1f%%",
			ic.Throughput, noIC.Throughput)
	}
}

func TestBlackholeEnergyDirections(t *testing.T) {
	clean := smallBlackhole()
	cleanRes, err := RunBlackhole(clean)
	if err != nil {
		t.Fatal(err)
	}
	ic := clean
	ic.IC = true
	ic.L = 1
	icRes, err := RunBlackhole(ic)
	if err != nil {
		t.Fatal(err)
	}
	// IC adds control traffic: energy strictly higher with no attack.
	if icRes.EnergyPerNode <= cleanRes.EnergyPerNode {
		t.Fatalf("IC energy %.2f J <= No-IC %.2f J", icRes.EnergyPerNode, cleanRes.EnergyPerNode)
	}
}

func TestBlackholeConfigValidation(t *testing.T) {
	cfg := smallBlackhole()
	cfg.Nodes = 2
	if _, err := RunBlackhole(cfg); err == nil {
		t.Error("2-node config accepted")
	}
	cfg = smallBlackhole()
	cfg.Malicious = cfg.Nodes // no room beside connections
	if _, err := RunBlackhole(cfg); err == nil {
		t.Error("over-subscribed node population accepted")
	}
}

func TestBlackholeSweepTables(t *testing.T) {
	cfg := smallBlackhole()
	cfg.SimTime = 30
	tables := mustRunGrid(t, &GridRequest{Kind: GridBlackhole, Blackhole: &cfg,
		Malicious: []int{0, 2}, Levels: []int{1}, Runs: 1})
	if len(tables) != 2 {
		t.Fatalf("%d tables, want throughput and energy", len(tables))
	}
	for _, tb := range tables {
		rows := tb.Rows()
		if len(rows) != 2 || rows[0] != "No IC" || rows[1] != "IC, L=1" {
			t.Fatalf("rows = %v", rows)
		}
		cols := tb.Cols()
		if len(cols) != 2 || cols[0] != "0" || cols[1] != "2" {
			t.Fatalf("cols = %v", cols)
		}
	}
	out := tables[0].String()
	if !strings.Contains(out, "Fig. 7(a)") {
		t.Fatalf("table title missing:\n%s", out)
	}
}

// smallSensor reduces the Fig. 8 configuration for test speed.
func smallSensor() SensorConfig {
	cfg := PaperSensorConfig()
	cfg.Seed = 5
	return cfg
}

func TestSensorCentralizedDetectsTargets(t *testing.T) {
	res, err := RunSensor(smallSensor())
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 2 {
		t.Fatalf("targets = %d, want 2 in a 200 s run", res.Targets)
	}
	if res.Missed != 0 {
		t.Fatalf("missed %d targets at K·T=20000 (paper: miss = 0)", res.Missed)
	}
	if res.Notifications == 0 {
		t.Fatal("no notifications reached the base")
	}
}

func TestSensorInterferenceRaisesFalseAlarms(t *testing.T) {
	clean := smallSensor()
	cleanRes, err := RunSensor(clean)
	if err != nil {
		t.Fatal(err)
	}
	intf := smallSensor()
	intf.Fault = sensor.FaultInterference
	intfRes, err := RunSensor(intf)
	if err != nil {
		t.Fatal(err)
	}
	if intfRes.FalseAlarmProb <= cleanRes.FalseAlarmProb {
		t.Fatalf("interference false alarms %.2f%% <= clean %.2f%%",
			intfRes.FalseAlarmProb, cleanRes.FalseAlarmProb)
	}
}

func TestSensorICSuppressesFalseAlarmsAndDuplicates(t *testing.T) {
	noIC := smallSensor()
	noIC.Fault = sensor.FaultInterference
	noICRes, err := RunSensor(noIC)
	if err != nil {
		t.Fatal(err)
	}
	ic := noIC
	ic.IC = true
	ic.L = 3
	icRes, err := RunSensor(ic)
	if err != nil {
		t.Fatal(err)
	}
	if icRes.Missed != 0 {
		t.Fatalf("IC missed %d targets", icRes.Missed)
	}
	if icRes.FalseAlarmProb >= noICRes.FalseAlarmProb/2 {
		t.Fatalf("IC false alarms %.2f%% not clearly below No-IC %.2f%%",
			icRes.FalseAlarmProb, noICRes.FalseAlarmProb)
	}
	if icRes.Notifications >= noICRes.Notifications/2 {
		t.Fatalf("IC notifications %d vs No-IC %d: duplicate suppression ineffective",
			icRes.Notifications, noICRes.Notifications)
	}
	if icRes.TrafficEnergy >= noICRes.TrafficEnergy {
		t.Fatalf("IC traffic energy %.3f J >= No-IC %.3f J", icRes.TrafficEnergy, noICRes.TrafficEnergy)
	}
}

func TestSensorICImprovesLocalization(t *testing.T) {
	noIC := smallSensor()
	noICRes, err := RunSensor(noIC)
	if err != nil {
		t.Fatal(err)
	}
	ic := noIC
	ic.IC = true
	ic.L = 5
	icRes, err := RunSensor(ic)
	if err != nil {
		t.Fatal(err)
	}
	if icRes.LocalizationErr >= noICRes.LocalizationErr/2 {
		t.Fatalf("IC localization %.1f m not clearly better than No-IC %.1f m (paper: 4-6x)",
			icRes.LocalizationErr, noICRes.LocalizationErr)
	}
}

func TestSensorNoTargetRun(t *testing.T) {
	cfg := smallSensor()
	cfg.NoTarget = true
	res, err := RunSensor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 0 || res.MissAlarm != 0 {
		t.Fatalf("no-target run reported targets: %+v", res)
	}
	if res.EnergyPerNode <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestSensorConfigValidation(t *testing.T) {
	cfg := smallSensor()
	cfg.Nodes = 3
	if _, err := RunSensor(cfg); err == nil {
		t.Error("tiny config accepted")
	}
}

func TestSensorSweepTables(t *testing.T) {
	cfg := smallSensor()
	cfg.SimTime = 100 // one target
	tables := mustRunGrid(t, &GridRequest{Kind: GridSensor, Sensor: &cfg,
		Levels: []int{3}, Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1})
	if len(tables) != 6 {
		t.Fatalf("%d tables, want Fig. 8 (a)-(f)", len(tables))
	}
	for _, tb := range tables {
		rows := tb.Rows()
		if len(rows) != 2 || rows[0] != "No IC" || rows[1] != "IC, L=3" {
			t.Fatalf("%s rows = %v", tb.Title, rows)
		}
	}
}

func TestGrayHoleICContainment(t *testing.T) {
	// The paper singles out gray holes as the variation network-wide
	// detectors cannot handle; the inner circle contains them the same way
	// (every forged RREP is suppressed regardless of how rarely it is
	// emitted).
	noIC := smallBlackhole()
	noIC.Malicious = 3
	noIC.GrayProb = 0.5
	noICRes, err := RunBlackhole(noIC)
	if err != nil {
		t.Fatal(err)
	}
	icCfg := noIC
	icCfg.IC = true
	icCfg.L = 1
	icRes, err := RunBlackhole(icCfg)
	if err != nil {
		t.Fatal(err)
	}
	if icRes.Throughput <= noICRes.Throughput {
		t.Fatalf("IC %.1f%% <= No-IC %.1f%% under gray-hole attack",
			icRes.Throughput, noICRes.Throughput)
	}
}

func TestWeakSignalMissesUnderUniformPlacement(t *testing.T) {
	// §5.2's weak-signal result: with K·T = 10000 and a uniform deployment,
	// large inner circles occasionally fail to gather L detecting
	// neighbours and miss the target; the dense grid does not show this.
	missed := 0
	for seed := int64(0); seed < 12; seed++ {
		cfg := PaperSensorConfig()
		cfg.UniformPlacement = true
		cfg.Model.KT = 10000
		cfg.Fault = sensor.FaultStuckAtZero
		cfg.IC = true
		cfg.L = 7
		cfg.Seed = seed
		res, err := RunSensor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		missed += res.Missed
	}
	if missed == 0 {
		t.Fatal("no weak-signal misses at L=7 under uniform placement (expected a few percent)")
	}
	// The dense grid covers every target even with the weak signal.
	cfg := PaperSensorConfig()
	cfg.Model.KT = 10000
	cfg.Fault = sensor.FaultStuckAtZero
	cfg.IC = true
	cfg.L = 7
	cfg.Seed = 3
	res, err := RunSensor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 0 {
		t.Fatalf("grid deployment missed %d targets", res.Missed)
	}
}
