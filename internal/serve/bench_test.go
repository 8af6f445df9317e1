package serve

import (
	"context"
	"net/http/httptest"
	"testing"

	"innercircle/internal/experiment"
	"innercircle/internal/sensor"
)

// BenchmarkServeWarmJob is the service layer's record of a warm job: an
// in-process server behind httptest computes a 6-point sensor grid once,
// then each op resubmits it and does what a client does — follow the
// events to "end", fetch the tables, the CSV and the run manifest. Every
// replica is a store hit, so the op is the service's own cost. Besides
// ns/op it reports the files each job leaves under the state directory:
// its record and its run manifest, a store object.
//
//	go test -run '^$' -bench ServeWarmJob ./internal/serve
func BenchmarkServeWarmJob(b *testing.B) {
	dir := b.TempDir()
	srv, err := New(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		cancel()
		<-done
	}()
	c := &Client{Base: hs.URL}

	cfg := experiment.PaperSensorConfig()
	cfg.Seed = 7
	grid := &experiment.GridRequest{Name: "warm", Kind: experiment.GridSensor, Sensor: &cfg, Levels: []int{3}, Runs: 1,
		Faults: []sensor.FaultKind{sensor.FaultNone, sensor.FaultInterference, sensor.FaultCalibration}}
	job := func() JobInfo {
		j, _ := runDone(b, c, grid)
		if _, err := c.TablesCSV(ctx, j.ID); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Manifest(ctx, j.ID); err != nil {
			b.Fatal(err)
		}
		return j
	}
	if j := job(); j.Computed != 6 {
		b.Fatalf("cold job computed %d replicas, want 6", j.Computed)
	}
	countFiles := func() (n int) {
		for _, st := range snapshotTree(b, dir) {
			if !st.dir {
				n++
			}
		}
		return n
	}
	files := countFiles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j := job(); j.Computed != 0 {
			b.Fatalf("warm job computed %d replicas, want 0", j.Computed)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(countFiles()-files)/float64(b.N), "files/job")
}
