// Package pool is the shared bounded-worker substrate behind every parallel
// path in the repository: batch identification (fingerprint.ParallelDecide),
// parallel stitching (stitch.Config.Workers), and the experiment drivers that
// fan independent trials across cores.
//
// The package makes one promise the rest of the system leans on hard:
// *scheduling never influences results*. Map hands out indices, workers write
// into caller-owned slots keyed by index, and reductions happen serially in
// index order at the call site. A run with Workers=1 and a run with
// Workers=32 therefore produce byte-identical output — the property the
// determinism tests and the `-workers=1` vs `-workers=N` acceptance diffs
// rely on.
//
// Instrumentation follows the repository convention (internal/obs): when
// observability is off every metric update is skipped behind a single atomic
// branch; when it is on, the pool exposes queue depth, busy-worker counts,
// and task throughput so saturation is visible in -obs.report snapshots and
// the debug server.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"probablecause/internal/obs"
)

// Pool metrics. Queue depth is the number of not-yet-claimed indices across
// all live batches; busy is the number of workers currently inside a task
// body. Utilization is busy/size sampled at task boundaries.
var (
	cBatches = obs.C("pool.batches")
	cTasks   = obs.C("pool.tasks")
	gQueue   = obs.G("pool.queue.depth")
	gBusy    = obs.G("pool.workers.busy")
	hBatchN  = obs.H("pool.batch.tasks")
)

// Workers resolves a worker-count knob to a concrete pool size: n if
// positive, else one worker per available CPU (GOMAXPROCS). This is the
// interpretation every -workers flag shares, so 0 means "use the machine".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines and
// returns when all calls have finished. workers <= 1 runs inline on the
// calling goroutine — the serial path and the parallel path are the same
// code, so "serial" always means "Map with one worker".
//
// Indices are claimed atomically in ascending order but may complete in any
// order; fn must write results only to slots owned by its index. Map itself
// adds no synchronization around fn's side effects beyond the happens-before
// edge of its return.
func Map(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	track := obs.On()
	if track {
		cBatches.Inc()
		cTasks.Add(int64(n))
		hBatchN.Observe(int64(n))
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	if track {
		gQueue.Add(int64(n))
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if track {
					gQueue.Add(-1)
					gBusy.Add(1)
				}
				fn(i)
				if track {
					gBusy.Add(-1)
				}
			}
		}()
	}
	wg.Wait()
}

// MapErr is Map for fallible tasks. Every index runs regardless of other
// indices' failures (work is independent by contract); the returned error is
// the one produced by the *lowest* failing index, so the error surfaced is
// deterministic across worker counts.
func MapErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	Map(workers, n, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
