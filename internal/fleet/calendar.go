package fleet

// eventKind selects what a calendar event does when it fires.
type eventKind uint8

// The coordinator's kinds (engine 0) and the background chaos kinds of
// a node's engine. These are all the events a run has: nodes accrue
// their accounting lazily from the fleet's load integral (node.go), so
// no event exists only to advance one.
const (
	evSample     eventKind = iota // fleet power sample
	evTimed                       // scenario event Spec.Events[arg]
	evRevert                      // inverse of Spec.Events[arg], after its For
	evFail                        // chaos failure, then a repair after ~MTTR
	evRepair                      // chaos repair, then a failure after ~MTBF
	evThrottle                    // throttle onset, cleared after ThrottleFor
	evUnthrottle                  // throttle clear, next onset after ~ThrottleEvery
	evCap                         // power cap, lifted after CapFor
	evUncap                       // cap lift, next cap after ~CapEvery
)

// event is one pending calendar entry, held by value. engine is 0 for
// the coordinator and i+1 for node i; seq is the run-wide schedule
// order.
type event struct {
	t      float64
	seq    uint64
	engine int
	arg    int32
	kind   eventKind
}

// before orders events by (time, engine, seq). Within one engine, seq
// order is the order its events were scheduled in, so this is the
// order in which a heap of per-engine queues, each keyed by (time,
// schedule order) and ties between engines broken by engine index,
// would run them.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.engine != b.engine {
		return a.engine < b.engine
	}
	return a.seq < b.seq
}

// calendar is a binary min-heap of events under before, plus the
// run-wide schedule counter.
type calendar struct {
	q   []event
	seq uint64
}

// next draws the next schedule seq.
func (c *calendar) next() uint64 {
	c.seq++
	return c.seq
}

// push books e, stamping it with the next schedule seq.
func (c *calendar) push(e event) {
	e.seq = c.next()
	c.q = append(c.q, e)
	i := len(c.q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.q[i].before(&c.q[p]) {
			break
		}
		c.q[i], c.q[p] = c.q[p], c.q[i]
		i = p
	}
}

// pop removes and returns the earliest event; the calendar must not be
// empty.
func (c *calendar) pop() event {
	top := c.q[0]
	last := len(c.q) - 1
	c.q[0] = c.q[last]
	c.q = c.q[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < last && c.q[l].before(&c.q[m]) {
			m = l
		}
		if r := 2*i + 2; r < last && c.q[r].before(&c.q[m]) {
			m = r
		}
		if m == i {
			break
		}
		c.q[i], c.q[m] = c.q[m], c.q[i]
		i = m
	}
	return top
}
