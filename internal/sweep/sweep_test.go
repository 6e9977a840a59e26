package sweep

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestBlocksCoversEveryIndexOnce: each index must be visited exactly
// once regardless of worker count and block size.
func TestBlocksCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 256, 1000} {
		for _, workers := range []int{0, 1, 3, 64} {
			for _, block := range []int{0, 1, 7, 256, 5000} {
				visits := make([]atomic.Int32, n+1)
				Blocks(n, workers, block, func(_, lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d: bad block [%d,%d)", n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						visits[i].Add(1)
					}
				})
				for i := 0; i < n; i++ {
					if got := visits[i].Load(); got != 1 {
						t.Fatalf("n=%d workers=%d block=%d: index %d visited %d times",
							n, workers, block, i, got)
					}
				}
			}
		}
	}
}

// TestForEachFixedSlots: the one-writer-per-index contract that lets
// callers collect into plain slices.
func TestForEachFixedSlots(t *testing.T) {
	const n = 500
	out := make([]int, n)
	ForEach(n, 8, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestBlocksSingleWorkerInline: with workers == 1 the callback must run
// on the caller's goroutine (no pool), which callers rely on for
// deterministic serial fallbacks.
func TestBlocksSingleWorkerInline(t *testing.T) {
	order := []int{}
	Blocks(10, 1, 3, func(w, lo, hi int) {
		if w != 0 {
			t.Errorf("worker id %d on serial path", w)
		}
		order = append(order, lo) // safe only if inline
	})
	want := []int{0, 3, 6, 9}
	if len(order) != len(want) {
		t.Fatalf("blocks %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("blocks %v, want %v", order, want)
		}
	}
}

// TestForEachContextWorkerPanic: a panic on a pool worker must not kill
// the process. It stops dispatch, is raised again on the caller's
// goroutine, where a recover can catch it, and leaves no worker behind.
func TestForEachContextWorkerPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		ForEachContext(context.Background(), 100, 2, func(i int) { //nolint:errcheck // panics
			if i == 3 {
				panic("boom at 3")
			}
		})
	}()
	if got != "boom at 3" {
		t.Fatalf("recovered %v on the caller's goroutine, want the worker's panic value", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after the panic", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
