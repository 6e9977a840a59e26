package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
)

// flightCall is one in-flight computation; done closes when val/err are
// settled.
type flightCall struct {
	done    chan struct{}
	waiters atomic.Int64
	val     any
	err     error
}

// flightGroup coalesces concurrent identical frontier sweeps: the first
// caller for a key runs fn, later callers for the same key block until
// the leader finishes and share its result, so a thundering herd on
// one hot sweep costs one computation per herd, not per request.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// do runs fn under key, coalescing with an identical in-flight call.
// The second return is true when the result came from another caller's
// computation. A follower whose ctx expires while waiting gets the ctx
// error; the leader's own computation keeps the leader's lifetime (its
// deadline, not the followers', bounds the shared work).
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (any, bool, error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.waiters.Add(1)
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	g.m[key] = c
	g.mu.Unlock()

	// Settle in a defer so a panicking fn still frees the key and
	// releases its followers (with errFlightPanicked); the panic itself
	// carries on up the leader's stack to the recovery middleware.
	settled := false
	defer func() {
		if !settled {
			c.val, c.err = nil, errFlightPanicked
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	settled = true
	return c.val, false, c.err
}

// errFlightPanicked is what the followers of a panicking leader get: a
// 500, as the leader's own request answers.
var errFlightPanicked = &statusError{http.StatusInternalServerError,
	errors.New("internal error: the coalesced computation panicked")}

// waiting reports how many followers are currently blocked on key's
// in-flight call (0 when key is not in flight). Tests use it to
// sequence deterministic coalescing scenarios.
func (g *flightGroup) waiting(key string) int64 {
	g.mu.Lock()
	c, ok := g.m[key]
	g.mu.Unlock()
	if !ok {
		return 0
	}
	return c.waiters.Load()
}
