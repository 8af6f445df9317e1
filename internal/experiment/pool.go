// Replica engine: a worker pool that fans the independent
// (config point × run) replicas of a parameter sweep across CPU cores.
//
// The paper's evaluation averages 50 ns-2 runs per data point; every replica
// is a deterministic, single-threaded simulation that owns its entire object
// graph, so a sweep is embarrassingly parallel. The engine preserves the
// sequential sweeps' reproducibility contract: results land in per-job slots
// indexed by enumeration order, and the caller folds them into tables in
// that order, so the output is bit-identical regardless of worker count or
// completion order. Only the progress stream (which reports completions as
// they happen) depends on scheduling.
package experiment

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"innercircle/internal/sim"
)

// Job is one unit of sweep work: an independent simulation replica.
type Job struct {
	// Index is the job's position in the caller's enumeration order;
	// RunJobs writes the job's result into results[Index].
	Index int
	// Label identifies the job in progress lines and failure messages
	// (e.g. "IC, L=2 malicious=6 run=3").
	Label string
	// Run executes the replica and returns its result. It must not share
	// mutable state with any other job: RunJobs calls Run from multiple
	// goroutines concurrently.
	Run func() (any, error)
}

// ProgressFunc observes job completions. done is the number of jobs
// finished so far (including j), total the number submitted. Calls are
// serialized by the engine, so implementations need no locking of their
// own; they run in completion order, which varies with worker count.
type ProgressFunc func(done, total int, j Job, result any)

// Workers returns the worker count for a sweep: the IC_WORKERS environment
// variable when set to a positive integer, else runtime.GOMAXPROCS(0).
func Workers() int {
	if s := os.Getenv("IC_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// RunJobs executes jobs on a pool of workers and returns the results
// indexed by Job.Index. A positive workers runs that many workers, at most
// one per job; workers <= 0 sizes the pool to the core budget instead: one
// worker, plus one for each spare core token, up to Workers() and the job
// count (see RunJobsCtx). A job panic is
// captured and reported as that job's error. On the first failure the
// engine cancels: queued jobs are skipped (in-flight replicas finish and
// are discarded), and the enumeration-order first error among the replicas
// that failed is returned.
func RunJobs(jobs []Job, workers int, progress ProgressFunc) ([]any, error) {
	return RunJobsCtx(context.Background(), jobs, workers, progress)
}

// RunJobsCtx is RunJobs under a context: cancelling ctx mid-sweep stops
// feeding the queue, lets in-flight replicas finish (a replica cannot be
// aborted mid-event; its partial work is never observed), and returns
// ctx's error with the results completed so far in their slots. On return
// every worker goroutine has exited and every core-budget token taken by
// the pool has been released — the experiment service's drain path leans
// on both guarantees.
func RunJobsCtx(ctx context.Context, jobs []Job, workers int, progress ProgressFunc) ([]any, error) {
	results := make([]any, len(jobs))
	errs := make([]error, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	// Every in-flight replica is charged one core token, so the shard
	// planner sizes a sharded replica's executor to the cores this pool is
	// not already driving. A pool sized to the budget takes its extra
	// workers' tokens up front and each of those workers holds its token
	// until it exits; its first worker, like every worker of an explicitly
	// sized pool, charges per replica. Advisory: a worker that gets no
	// token still runs — the budget only stops a saturated pool's replicas
	// from spawning shards-per-replica extra goroutines on top of the
	// workers (they run on one kernel instead).
	held := 0 // workers holding a core token for life
	if workers <= 0 {
		held = sim.AcquireCores(min(Workers(), len(jobs)) - 1)
		workers = 1 + held
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		mu        sync.Mutex // guards done, failed, progress calls
		done      int
		failed    bool
		wg        sync.WaitGroup
		jobCh     = make(chan Job)
		cancelled = make(chan struct{})
	)
	cancel := func() {
		// Callers hold mu; close once.
		if !failed {
			failed = true
			close(cancelled)
		}
	}

	worker := func(holds bool) {
		defer wg.Done()
		if holds {
			defer sim.ReleaseCores(1)
		}
		for j := range jobCh {
			select {
			case <-cancelled:
				continue // drain the queue without starting more replicas
			case <-ctx.Done():
				continue
			default:
			}
			got := 0
			if !holds {
				got = sim.AcquireCores(1)
			}
			trackInflight(1)
			res, err := runOne(j)
			trackInflight(-1)
			sim.ReleaseCores(got)
			mu.Lock()
			if err != nil {
				errs[j.Index] = err
				cancel()
				mu.Unlock()
				continue
			}
			results[j.Index] = res
			done++
			if progress != nil {
				progress(done, len(jobs), j, res)
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker(i < held)
	}

feed:
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-cancelled:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()

	// Report the first failure in enumeration order (deterministic even
	// when several in-flight replicas fail concurrently).
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, ctx.Err()
}

// inflight tracks replicas currently executing across every pool in the
// process; peakInflight is its resettable high-water mark. The experiment
// service's tests use the pair to assert that concurrent sweeps sized by
// the core-token budget never oversubscribe the machine.
var (
	inflight     atomic.Int64
	peakInflight atomic.Int64
)

func trackInflight(d int64) {
	n := inflight.Add(d)
	if d <= 0 {
		return
	}
	for {
		peak := peakInflight.Load()
		if n <= peak || peakInflight.CompareAndSwap(peak, n) {
			return
		}
	}
}

// InFlightReplicas returns the number of replicas executing right now.
func InFlightReplicas() int { return int(inflight.Load()) }

// PeakInFlightReplicas returns the high-water mark of concurrently
// executing replicas since the last ResetPeakInFlight.
func PeakInFlightReplicas() int { return int(peakInflight.Load()) }

// ResetPeakInFlight clears the in-flight high-water mark.
func ResetPeakInFlight() { peakInflight.Store(0) }

// runOne executes one job, converting a panic into an error so a corrupted
// replica cannot take down the whole sweep process.
func runOne(j Job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment: job %q panicked: %v\n%s", j.Label, r, debug.Stack())
		}
	}()
	res, err = j.Run()
	if err != nil {
		err = fmt.Errorf("experiment: job %q: %w", j.Label, err)
	}
	return res, err
}
