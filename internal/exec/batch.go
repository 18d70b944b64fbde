package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Batched exact execution. The Executor never mutates the table or its
// grid, and a table does not change once it is loaded, so independent
// queries can be evaluated concurrently; the batch entry points below drain
// a query list with a bounded worker pool. Results and errors
// are positional: errs[i] is non-nil (typically ErrEmptySubspace) exactly
// when the i-th query produced no result.

// forEachParallelCtx runs fn(0..n-1) over min(GOMAXPROCS, n) workers. Work
// is handed out by an atomic cursor, so long-running queries do not stall
// the rest of the batch. It is the one pool shape of the module: MeanBatchCtx
// drains its queries with it, and ForEachParallelStream wraps it for the
// serve layer's /query/batch sheets. Once ctx is cancelled, workers stop
// claiming new indices and the call returns ctx.Err() after the in-flight fn
// calls finish — an abandoned HTTP batch request stops burning the pool
// mid-sheet instead of completing the whole sheet for nobody. Indices claimed before the cancellation run to
// completion (fn is never interrupted mid-call), so on a nil error every
// index was processed, and on ctx.Err() a prefix-dense subset was.
//
// The cancellation check costs one atomic load per claimed index; callers
// whose fn blocks for long stretches should additionally check ctx inside
// fn if they need sub-item latency.
func forEachParallelCtx(ctx context.Context, n int, fn func(i int)) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// ForEachParallelStream is forEachParallelCtx with a completion feed: after
// each fn(i) returns, i is sent on completed, so a consumer can act on
// finished items (flush an HTTP response frame, update a progress bar)
// while the rest of the batch is still running. Completion order is the
// order items finish, not index order — a consumer that needs ordered
// output reorders on its side.
//
// The caller owns the channel: it must either keep receiving or size the
// buffer at n, or the workers block on the send; and it closes the channel
// (after this call returns) if the consumer ranges over it. The error
// contract is forEachParallelCtx's: nil means every index completed (and
// was sent), ctx.Err() means a prefix-dense subset was.
func ForEachParallelStream(ctx context.Context, n int, fn func(i int), completed chan<- int) error {
	return forEachParallelCtx(ctx, n, func(i int) {
		fn(i)
		completed <- i
	})
}

// MeanBatchCtx executes many exact Q1 queries concurrently; queries the
// cancelled pool never reached carry the context error in their errs slot.
func (e *Executor) MeanBatchCtx(ctx context.Context, qs []RadiusQuery) ([]MeanResult, []error) {
	results := make([]MeanResult, len(qs))
	errs := make([]error, len(qs))
	ran := make([]bool, len(qs))
	if err := forEachParallelCtx(ctx, len(qs), func(i int) {
		results[i], errs[i] = e.MeanCtx(ctx, qs[i])
		ran[i] = true
	}); err != nil {
		// Mark the queries the pool never claimed, so callers can tell
		// "skipped by cancellation" apart from "executed successfully" —
		// both would otherwise read as a nil error. Each ran flag is written
		// only by the worker that claimed that index, and the pool's
		// WaitGroup orders those writes before this read.
		for i := range errs {
			if !ran[i] {
				errs[i] = err
			}
		}
	}
	return results, errs
}
