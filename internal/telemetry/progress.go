package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Progress reports "label: done/total configs" lines at a fixed count
// interval. It is deliberately count-based rather than time-based so
// driving it from a deterministic sweep produces deterministic output
// (tests golden-match it). Tick is safe for concurrent use; under
// parallel ticking each threshold still prints exactly once, though
// threshold lines may interleave out of order. All methods no-op on a
// nil receiver, so call sites need no enabled-check.
type Progress struct {
	w     io.Writer
	wmu   sync.Mutex
	label string
	every int64
	total int64
	n     atomic.Int64
	done  atomic.Bool
}

// NewProgress reports to w every `every` ticks out of an expected
// total. A non-positive every disables reporting (returns nil).
func NewProgress(w io.Writer, label string, total, every int64) *Progress {
	if w == nil || every <= 0 {
		return nil
	}
	return &Progress{w: w, label: label, every: every, total: total}
}

// Tick records one completed item, printing when the count crosses a
// reporting threshold.
func (p *Progress) Tick() {
	p.Add(1)
}

// Add records n completed items at once, printing for each threshold
// the batch crosses at most once (the highest).
func (p *Progress) Add(n int64) {
	if p == nil || n <= 0 {
		return
	}
	was := p.n.Add(n) - n
	now := was + n
	if now/p.every > was/p.every {
		p.report(now)
	}
}

// Done prints the final count if the last threshold did not already
// cover it. Call it once at the end of the sweep.
func (p *Progress) Done() {
	if p == nil || !p.done.CompareAndSwap(false, true) {
		return
	}
	if n := p.n.Load(); n%p.every != 0 || n == 0 {
		p.report(n)
	}
}

func (p *Progress) report(n int64) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.total > 0 {
		fmt.Fprintf(p.w, "%s: %d/%d configs\n", p.label, n, p.total)
	} else {
		fmt.Fprintf(p.w, "%s: %d configs\n", p.label, n)
	}
}
