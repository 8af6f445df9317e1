package sim

// Core-token budget: a process-wide account of how many simulation-driving
// goroutines are worth keeping runnable at once. Without it, a sweep of W
// workers each running an S-shard replica spawns W×S runnable goroutines
// and thrashes the scheduler; with it, the experiment pool charges one
// token per in-flight replica and the scenario planner (planShards) sizes
// each sharded replica's executor to the tokens actually left over, holding
// them until the replica ends, so concurrent sharded replicas cooperatively
// divide the machine instead of fighting over it. ShardSet.Run takes the
// slot count it is given and never reads the budget.
//
// The budget is advisory, never blocking: AcquireCores grants at most what
// is spare and possibly nothing, and callers proceed either way (a pool
// worker that gets no token still runs its replica; a replica whose planner
// is left with one executor slot runs on one kernel). That keeps
// the token layer invisible to correctness — results are pinned
// byte-identical at every (workers, shards) combination by the kernel's
// determinism contract, and the budget only shapes wall-clock behavior.

import (
	"runtime"
	"sync/atomic"
)

// coreUsed counts tokens currently held across the process.
var coreUsed atomic.Int64

// coreBudget returns the total token pool: GOMAXPROCS, re-read on every
// acquire so a test or benchmark varying it mid-process sees the new
// ceiling.
func coreBudget() int64 { return int64(runtime.GOMAXPROCS(0)) }

// AcquireCores takes up to max spare core tokens and returns how many were
// granted (possibly zero — it never blocks). The caller must pass the
// granted count to ReleaseCores when the work completes.
func AcquireCores(max int) int {
	if max <= 0 {
		return 0
	}
	for {
		used := coreUsed.Load()
		spare := coreBudget() - used
		if spare <= 0 {
			return 0
		}
		n := int64(max)
		if n > spare {
			n = spare
		}
		if coreUsed.CompareAndSwap(used, used+n) {
			return int(n)
		}
	}
}

// ReleaseCores returns n tokens taken by AcquireCores to the pool.
func ReleaseCores(n int) {
	if n > 0 {
		coreUsed.Add(-int64(n))
	}
}

// CoresInUse returns the number of core tokens currently held across the
// process. Diagnostic: leak tests assert it returns to zero after a
// cancelled sweep.
func CoresInUse() int { return int(coreUsed.Load()) }
