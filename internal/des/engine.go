// Package des is a minimal discrete-event simulation engine: a virtual
// clock and a time-ordered event queue. The cluster simulator
// (internal/simulator) runs on it, as can any other process-oriented
// model in the repository.
package des

import (
	"container/heap"
	"errors"
	"math"

	"repro/internal/telemetry"
)

// Event is a scheduled callback.
type Event struct {
	// Time is the virtual time the event fires.
	Time float64
	// Action runs when the event fires. It may schedule further events.
	Action func()

	seq   uint64 // tie-break so equal-time events fire in schedule order
	index int    // heap bookkeeping
	dead  bool   // cancelled
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is the simulation kernel. It is not safe for concurrent use:
// discrete-event simulation is inherently sequential in virtual time,
// and the repository parallelizes at the granularity of whole
// simulations instead.
type Engine struct {
	now    float64
	queue  eventQueue
	seq    uint64
	nsteps uint64

	// Instruments; nil (a no-op costing ~1ns per touch) unless a
	// telemetry registry is installed. Counters are shared across all
	// engines reporting to the same registry, aggregating fleet-wide.
	evScheduled *telemetry.Counter
	evFired     *telemetry.Counter
	evCancelled *telemetry.Counter
	queueDepth  *telemetry.Gauge
	maxQueueLen *telemetry.Gauge
}

// New returns an engine with the clock at zero, instrumented against
// the global telemetry registry if one is installed.
func New() *Engine {
	e := &Engine{}
	e.Instrument(telemetry.Global())
	return e
}

// Instrument points the engine's counters at reg. A nil reg disables
// instrumentation (the default when no global registry is installed).
func (e *Engine) Instrument(reg *telemetry.Registry) {
	e.evScheduled = reg.Counter("des.events_scheduled")
	e.evFired = reg.Counter("des.events_fired")
	e.evCancelled = reg.Counter("des.events_cancelled")
	e.queueDepth = reg.Gauge("des.queue_depth")
	e.maxQueueLen = reg.Gauge("des.queue_depth_max")
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Steps returns how many events have been executed.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Schedule enqueues action to run after delay. A negative delay is an
// error; a zero delay runs after the current event completes. It returns
// the event, which can be cancelled.
func (e *Engine) Schedule(delay float64, action func()) (*Event, error) {
	if delay < 0 || math.IsNaN(delay) {
		return nil, errors.New("des: negative or NaN delay")
	}
	if action == nil {
		return nil, errors.New("des: nil action")
	}
	ev := &Event{Time: e.now + delay, Action: action, seq: e.seq}
	e.seq++
	heap.Push(&e.queue, ev)
	e.evScheduled.Inc()
	e.queueDepth.Set(float64(len(e.queue)))
	e.maxQueueLen.Max(float64(len(e.queue)))
	return ev, nil
}

// ScheduleAt enqueues action at an absolute virtual time, which must not
// be in the past.
func (e *Engine) ScheduleAt(t float64, action func()) (*Event, error) {
	if t < e.now {
		return nil, errors.New("des: cannot schedule in the past")
	}
	return e.Schedule(t-e.now, action)
}

// Cancel marks a pending event dead; it will be skipped when popped.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	if !ev.dead && ev.index >= 0 { // still pending: count the first cancel
		e.evCancelled.Inc()
	}
	ev.dead = true
}

// purgeDead pops cancelled events off the head of the queue so the
// queue head, when present, is the next live event. Cancelled events
// were already counted by Cancel; dropping them here is bookkeeping
// only.
func (e *Engine) purgeDead() {
	for len(e.queue) > 0 && e.queue[0].dead {
		heap.Pop(&e.queue)
	}
}

// hasPendingEvents reports whether any live (non-cancelled) event is
// still queued. Together with peekNextEventTime and processNextEvent it
// is the step loop Run is built from.
func (e *Engine) hasPendingEvents() bool {
	e.purgeDead()
	return len(e.queue) > 0
}

// peekNextEventTime returns the virtual time of the earliest live event
// without executing it. The second return is false when no live event
// is pending.
func (e *Engine) peekNextEventTime() (float64, bool) {
	e.purgeDead()
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].Time, true
}

// processNextEvent advances the clock to the earliest live event and
// executes it. It returns false (executing nothing) when the queue holds
// no live event. Unlike Run it ignores any horizon: the caller decides
// when to stop by inspecting peekNextEventTime first.
func (e *Engine) processNextEvent() bool {
	e.purgeDead()
	if len(e.queue) == 0 {
		return false
	}
	next := heap.Pop(&e.queue).(*Event)
	e.now = next.Time
	next.Action()
	e.nsteps++
	e.evFired.Inc()
	e.queueDepth.Set(float64(len(e.queue)))
	return true
}

// Run executes events until the queue empties or the clock would pass
// until (exclusive); events at exactly until still run. Pass +Inf to
// drain the queue. It returns the number of events executed.
func (e *Engine) Run(until float64) uint64 {
	executed := uint64(0)
	for {
		t, ok := e.peekNextEventTime()
		if !ok || t > until {
			break
		}
		e.processNextEvent()
		executed++
	}
	if until > e.now && !math.IsInf(until, 1) && !e.hasPendingEvents() {
		// Advance the clock to the horizon once idle, so observation
		// windows longer than the workload read the correct duration.
		e.now = until
	}
	e.queueDepth.Set(float64(len(e.queue)))
	return executed
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.queue) }
