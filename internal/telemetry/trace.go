package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// maxTraceEvents bounds tracer memory; spans past the cap are counted
// as dropped rather than recorded.
const maxTraceEvents = 1 << 20

// Tracer records named, possibly nested and concurrent, timed phases
// ("spans") and exports them in the Chrome trace-event format, which
// chrome://tracing and https://ui.perfetto.dev load directly. Every
// span is on track 0, so spans that overlap in time render as a
// nesting stack. All methods are safe for concurrent use and no-ops on
// a nil receiver.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	now     func() time.Time
	events  []traceEvent
	dropped uint64
}

// traceEvent is one complete ("ph":"X") Chrome trace event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"` // always 0: one track
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	t := &Tracer{now: time.Now}
	t.start = t.now()
	return t
}

// SetClock replaces the tracer's time source and resets the trace
// origin to the new clock's current reading. Tests inject a fake clock
// here so trace output is deterministic.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	t.start = now()
}

// Span is one in-flight phase; End closes it. A span opened under a
// request scope (see Start) ends on that request's timeline, any other
// on its tracer. A nil span (from a nil or disabled tracer) no-ops.
type Span struct {
	t     *Tracer
	rc    *RequestContext
	name  string
	begin time.Time
	args  map[string]any
}

// Start opens a span named name on the tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	now := t.now()
	t.mu.Unlock()
	return &Span{t: t, name: name, begin: now}
}

// KeepsArgs reports whether Arg keeps what it is given: true for a
// process span, false for a nil span and for a request span, whose
// timeline keeps no args. A caller tests it before computing or boxing
// an arg, so a span that drops its args costs nothing for them:
//
//	if span.KeepsArgs() {
//		span.Arg("evaluated", n)
//	}
func (s *Span) KeepsArgs() bool { return s != nil && s.rc == nil }

// Arg attaches a key/value pair shown in the trace viewer's detail
// pane. It returns the span for chaining and no-ops unless KeepsArgs.
func (s *Span) Arg(key string, value any) *Span {
	if !s.KeepsArgs() {
		return s
	}
	if s.args == nil {
		s.args = make(map[string]any)
	}
	s.args[key] = value
	return s
}

// End closes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.rc != nil {
		s.rc.record(s.name, s.begin, time.Now())
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= maxTraceEvents {
		t.dropped++
		return
	}
	end := t.now()
	t.events = append(t.events, traceEvent{
		Name: s.name,
		Cat:  "telemetry",
		Ph:   "X",
		Ts:   float64(s.begin.Sub(t.start)) / float64(time.Microsecond),
		Dur:  float64(end.Sub(s.begin)) / float64(time.Microsecond),
		Pid:  1,
		Args: s.args,
	})
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many spans were discarded at the event cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteChromeTrace writes the recorded spans as a JSON array of Chrome
// trace events, one per line, sorted by start time. The output is
// valid JSON and loads in chrome://tracing and Perfetto. A nil tracer
// writes an empty array.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var events []traceEvent
	if t != nil {
		t.mu.Lock()
		events = make([]traceEvent, len(t.events))
		copy(events, t.events)
		t.mu.Unlock()
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	if len(events) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s%s\n", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
