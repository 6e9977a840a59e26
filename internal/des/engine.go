// Package des is a minimal discrete-event simulation engine: a virtual
// clock and a time-ordered event queue. The cluster simulator
// (internal/simulator) runs on it.
package des

import (
	"container/heap"
	"errors"
	"math"

	"repro/internal/telemetry"
)

// event is a scheduled callback.
type event struct {
	time   float64 // the virtual time the event fires
	action func()  // may schedule further events
	seq    uint64  // tie-break so equal-time events fire in schedule order
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
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
	queueDepth  *telemetry.Gauge
	maxQueueLen *telemetry.Gauge
}

// New returns an engine with the clock at zero, instrumented against
// the global telemetry registry if one is installed.
func New() *Engine {
	reg := telemetry.Global()
	return &Engine{
		evScheduled: reg.Counter("des.events_scheduled"),
		evFired:     reg.Counter("des.events_fired"),
		queueDepth:  reg.Gauge("des.queue_depth"),
		maxQueueLen: reg.Gauge("des.queue_depth_max"),
	}
}

// Steps returns how many events have been executed.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Schedule enqueues action to run after delay. A negative delay is an
// error; a zero delay runs after the current event completes.
func (e *Engine) Schedule(delay float64, action func()) error {
	if delay < 0 || math.IsNaN(delay) {
		return errors.New("des: negative or NaN delay")
	}
	if action == nil {
		return errors.New("des: nil action")
	}
	heap.Push(&e.queue, &event{time: e.now + delay, action: action, seq: e.seq})
	e.seq++
	e.evScheduled.Inc()
	e.queueDepth.Set(float64(len(e.queue)))
	e.maxQueueLen.Max(float64(len(e.queue)))
	return nil
}

// ScheduleAt enqueues action at an absolute virtual time, which must not
// be in the past.
func (e *Engine) ScheduleAt(t float64, action func()) error {
	if t < e.now {
		return errors.New("des: cannot schedule in the past")
	}
	return e.Schedule(t-e.now, action)
}

// Run executes events until the queue empties or the clock would pass
// until (exclusive); events at exactly until still run. Pass +Inf to
// drain the queue. It returns the number of events executed.
func (e *Engine) Run(until float64) uint64 {
	start := e.nsteps
	for len(e.queue) > 0 && e.queue[0].time <= until {
		next := heap.Pop(&e.queue).(*event)
		e.now = next.time
		next.action()
		e.nsteps++
		e.evFired.Inc()
		e.queueDepth.Set(float64(len(e.queue)))
	}
	if until > e.now && !math.IsInf(until, 1) && len(e.queue) == 0 {
		// Advance the clock to the horizon once idle, so observation
		// windows longer than the workload read the correct duration.
		e.now = until
	}
	e.queueDepth.Set(float64(len(e.queue)))
	return e.nsteps - start
}
