// Package sweep is the shared worker pool behind the command-line
// grids: the energyprop utilization/percentile sweeps (epprop -workers,
// the reproduction suite) run through it. The request paths of epserve
// and replay and the adaptive planner do not: a percentile solve is a
// microsecond or two, less than handing it to a pool costs. Work
// is handed to workers in contiguous index blocks over a channel — a
// single item can be microseconds, so per-item channel traffic would
// dominate — and each index is written by exactly one worker, so
// callers can use fixed-slot result slices with no locking and
// deterministic order.
package sweep

import (
	"context"
	"runtime"
	"sync"
)

// DefaultBlock is the block size used when callers pass block <= 0:
// large enough to amortize channel traffic for microsecond-scale items,
// small enough to load-balance thousand-item sweeps.
const DefaultBlock = 256

// Blocks partitions [0, n) into contiguous blocks of the given size and
// runs fn(worker, lo, hi) across a pool of workers. workers <= 0 uses
// GOMAXPROCS; the pool never exceeds the number of blocks. With one
// worker (or one block) everything runs inline on the caller's
// goroutine, so small sweeps pay no synchronization at all. Blocks
// returns after every block has completed.
func Blocks(n, workers, block int, fn func(worker, lo, hi int)) {
	BlocksContext(context.Background(), n, workers, block, fn) //nolint:errcheck // Background never cancels
}

// BlocksContext is Blocks with cancellation: once ctx is done no further
// block is dispatched (blocks already handed to a worker run to
// completion — fn sees at most one more call per worker) and the ctx
// error is returned after every started block has finished. It returns
// nil when all n items were processed. Long-running fn bodies that want
// finer-grained cancellation should check ctx themselves.
//
// A panic in fn never escapes on a pool goroutine, where no caller
// could recover it: the worker recovers it, dispatch stops, and once
// every started block has finished the first panic value is raised
// again on the caller's goroutine.
func BlocksContext(ctx context.Context, n, workers, block int, fn func(worker, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if block <= 0 {
		block = DefaultBlock
	}
	nblocks := (n + block - 1) / block
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nblocks {
		workers = nblocks
	}
	done := ctx.Done()
	if workers == 1 {
		for lo := 0; lo < n; lo += block {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			hi := lo + block
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
		return nil
	}

	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  = make(chan struct{})
		panicVal  any
	)
	next := make(chan [2]int)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panicOnce.Do(func() { panicVal = rec; close(panicked) })
				}
			}()
			for r := range next {
				fn(w, r[0], r[1])
			}
		}()
	}
	var err error
dispatch:
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		select {
		case next <- [2]int{lo, hi}:
		case <-done:
			err = ctx.Err()
			break dispatch
		case <-panicked:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return err
}

// ForEach runs fn(i) for every i in [0, n) across the pool, one item per
// block — the right shape when each item is itself expensive (a
// percentile search, a model evaluation), where block batching would
// only hurt load balance.
func ForEach(n, workers int, fn func(i int)) {
	Blocks(n, workers, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForEachContext is ForEach with cancellation, with the same semantics
// as BlocksContext: items already dispatched complete, no new items
// start once ctx is done, and the ctx error is returned if the sweep
// stopped early.
func ForEachContext(ctx context.Context, n, workers int, fn func(i int)) error {
	return BlocksContext(ctx, n, workers, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
