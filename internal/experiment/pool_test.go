package experiment

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"innercircle/internal/sensor"
)

// TestRunJobsOrdersResultsByIndex pins the engine's core contract: results
// land in enumeration-order slots no matter how workers interleave.
func TestRunJobsOrdersResultsByIndex(t *testing.T) {
	const n = 100
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Index: i,
			Label: fmt.Sprintf("job-%d", i),
			Run:   func() (any, error) { return i * i, nil },
		}
	}
	for _, workers := range []int{1, 4, 16} {
		results, err := RunJobs(jobs, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			if r.(int) != i*i {
				t.Fatalf("workers=%d: results[%d] = %v, want %d", workers, i, r, i*i)
			}
		}
	}
}

// TestRunJobsCapturesPanic pins that a panicking replica surfaces as an
// error naming the job, not a process crash.
func TestRunJobsCapturesPanic(t *testing.T) {
	jobs := []Job{
		{Index: 0, Label: "ok", Run: func() (any, error) { return 1, nil }},
		{Index: 1, Label: "boom", Run: func() (any, error) { panic("replica corrupted") }},
	}
	_, err := RunJobs(jobs, 2, nil)
	if err == nil {
		t.Fatal("panic not reported as error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "replica corrupted") {
		t.Fatalf("error does not identify the panicking job: %v", err)
	}
}

// TestRunJobsCancelsOnFirstFailure pins that a failure stops the engine
// from starting queued jobs (in-flight ones may finish).
func TestRunJobsCancelsOnFirstFailure(t *testing.T) {
	const n = 64
	var started atomic.Int64
	sentinel := errors.New("replica failed")
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Index: i,
			Label: fmt.Sprintf("job-%d", i),
			Run: func() (any, error) {
				started.Add(1)
				if i == 0 {
					return nil, sentinel
				}
				return i, nil
			},
		}
	}
	_, err := RunJobs(jobs, 1, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	// With one worker the failure lands before any other job starts; the
	// engine must then skip the rest of the queue.
	if got := started.Load(); got != 1 {
		t.Fatalf("%d jobs started after first failure, want 1", got)
	}
}

// TestRunJobsReportsFirstErrorByIndex pins error selection: among the
// replicas that actually failed (cancellation may skip later ones before
// they run), the enumeration-order first error is returned. With a single
// worker the execution order is the enumeration order, so the selection is
// fully deterministic: the index-3 failure always wins over index-7's.
func TestRunJobsReportsFirstErrorByIndex(t *testing.T) {
	errA := errors.New("fail-3")
	errB := errors.New("fail-7")
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Index: i, Run: func() (any, error) {
			switch i {
			case 3:
				return nil, errA
			case 7:
				return nil, errB
			default:
				return i, nil
			}
		}}
	}
	for trial := 0; trial < 10; trial++ {
		_, err := RunJobs(jobs, 1, nil)
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: err = %v, want the index-3 failure", trial, err)
		}
		_, err = RunJobs(jobs, 8, nil)
		if !errors.Is(err, errA) && !errors.Is(err, errB) {
			t.Fatalf("trial %d: err = %v, want one of the injected failures", trial, err)
		}
	}
}

// TestRunJobsProgressSerialized pins that progress callbacks are
// serialized and count monotonically to the total.
func TestRunJobsProgressSerialized(t *testing.T) {
	const n = 32
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Index: i, Run: func() (any, error) { return i, nil }}
	}
	var calls []int
	_, err := RunJobs(jobs, 8, func(done, total int, j Job, result any) {
		// The engine holds its lock across this call: appending without
		// extra locking is part of the contract under test (go test -race
		// verifies it).
		calls = append(calls, done)
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonic", calls)
		}
	}
}

// TestWorkersEnvOverride pins the IC_WORKERS knob.
func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv("IC_WORKERS", "3")
	if w := Workers(); w != 3 {
		t.Fatalf("Workers() = %d with IC_WORKERS=3", w)
	}
	t.Setenv("IC_WORKERS", "bogus")
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d with bogus IC_WORKERS", w)
	}
}

// TestRunGridKeepsWorkerOverride pins that the core budget does not shrink
// an in-process sweep's pool: with IC_WORKERS=8 on two cores, RunGrid runs
// eight replicas at once. The sweep-determinism tests compare IC_WORKERS=1
// with IC_WORKERS=8 and rely on it. Each sensor replica takes far longer
// than the eight workers need to pick up their first jobs, so all eight are
// in flight before any finishes.
func TestRunGridKeepsWorkerOverride(t *testing.T) {
	withProcs(t, 2)
	t.Setenv("IC_WORKERS", "8")
	cfg := PaperSensorConfig()
	cfg.SimTime = 400
	g := &GridRequest{Kind: GridSensor, Sensor: &cfg, Levels: []int{3},
		Faults: []sensor.FaultKind{sensor.FaultNone, sensor.FaultInterference}, Runs: 2}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("%d replicas, want 8", len(points))
	}
	ResetPeakInFlight()
	mustRunGrid(t, g)
	if peak := PeakInFlightReplicas(); peak != 8 {
		t.Fatalf("at most %d replicas in flight, want 8 (IC_WORKERS=8, GOMAXPROCS=2)", peak)
	}
}
