package search

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchResult is one request's outcome within a batch search.
type BatchResult struct {
	Results []Result
	Err     error
}

// clampWorkers resolves a worker-count knob to an effective pool size:
// zero and negative values mean "let the runtime decide" (GOMAXPROCS).
// Every pool — both engines' batches and the facade's — resolves its knob
// through this one helper (in runPool), so the <= 0 convention cannot
// drift between call sites.
func clampWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runPool runs run(0) … run(n-1) over at most `workers` goroutines
// (<= 0 means GOMAXPROCS): the classic shared-counter worker pool, shared
// so every request batch keeps identical scheduling and the single-worker
// fast path stays goroutine-free. Callers own per-index cancellation
// checks inside run — the pool itself always drains all n indices.
func runPool(n, workers int, run func(int)) {
	workers = min(clampWorkers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// RunPool is runPool for callers outside the package.
func RunPool(n, workers int, run func(int)) { runPool(n, workers, run) }

// SearchBatch evaluates a batch of requests concurrently with a
// runtime-chosen worker count — the Searcher-contract form of
// ParallelSearch. out[i] answers reqs[i]; the whole batch is pinned to one
// snapshot set.
func (e *core) SearchBatch(ctx context.Context, reqs []Request) []BatchResult {
	return e.ParallelSearch(ctx, reqs, 0)
}

// ParallelSearch evaluates N requests over at most `workers` goroutines
// sharing this engine (workers <= 0 means GOMAXPROCS). Results come back
// positionally — out[i] answers reqs[i] — and each slot is exactly what a
// serial Search would have returned, since the engine's read path is
// race-free and every worker borrows its own pooled scratch.
//
// The whole batch is pinned to one snapshot (one per shard), resolved once
// up front: even with a writer publishing new index versions mid-batch,
// every request observes the same index state, as if the batch had run
// serially at the moment the call was made.
//
// Cancelling ctx abandons the requests still queued: in-flight searches
// stop at their next cooperative check, and every slot that had not
// completed carries ctx.Err(). An already-cancelled ctx touches no
// snapshot and marks every slot.
func (e *core) ParallelSearch(ctx context.Context, reqs []Request, workers int) []BatchResult {
	ctx = orBackground(ctx)
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	snaps := e.pinSet()
	runPool(len(reqs), workers, func(i int) {
		if err := ctx.Err(); err != nil {
			out[i].Err = err // abandoned: queued behind the cancellation
			return
		}
		out[i].Results, out[i].Err = e.search(ctx, reqs[i], snaps...)
	})
	return out
}
