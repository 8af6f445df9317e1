package experiment

import "testing"

// BenchmarkSensorReplica measures one full Fig. 8-style IC replica — the
// per-point unit of work of SensorSweep — with statistical voting (real
// RSA value signatures and verification) over 60 nodes for 120 virtual
// seconds. This is the replica-level view of the crypto hot path: value
// signing, propose/ack verification (through the verification memo), and
// agreed-message flooding.
func BenchmarkSensorReplica(b *testing.B) {
	cfg := PaperSensorConfig()
	cfg.Nodes = 60
	cfg.SimTime = 120
	cfg.TargetStart = 10 // three full target windows → ~36 voting rounds
	cfg.TargetPeriod = 40
	cfg.TargetDuration = 15
	cfg.Seed = 7
	cfg.IC = true
	cfg.L = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSensor(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
