package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/traj"
)

// BatchResult is one query's outcome in a batch run.
type BatchResult struct {
	Index  int
	Result *Result
	Err    error
}

// batchWorkers resolves the batch worker bound: workers as given, with
// values < 1 defaulting to runtime.GOMAXPROCS(0) so an unconfigured batch
// uses the machine instead of running serially.
func batchWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// InferBatchCtx runs InferRoutesCtx over many queries concurrently with at
// most workers goroutines and returns the results in input order. The
// engine is immutable and its caches are internally synchronized, so the
// queries share it safely; per-query determinism is unaffected by
// scheduling. workers < 1 uses runtime.GOMAXPROCS(0).
//
// ctx is shared by every query in the batch: cancelling it makes the
// remaining queries fail fast with the context error. A Params.Deadline, by
// contrast, is applied per query — each one gets the full budget.
func (e *Engine) InferBatchCtx(ctx context.Context, queries []*traj.Trajectory, p Params, workers int) []BatchResult {
	if e.met != nil {
		e.met.batchCalls.Inc()
		e.met.batchQueries.Add(uint64(len(queries)))
		defer e.met.batch.ObserveSince(time.Now())
	}
	workers = batchWorkers(workers)
	out := make([]BatchResult, len(queries))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := e.InferRoutesCtx(ctx, queries[i], p)
				out[i] = BatchResult{Index: i, Result: res, Err: err}
			}
		}()
	}
	for i := range queries {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
