package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// RequestContext is the request-scoped half of the observability layer:
// where the Registry aggregates process-wide, a RequestContext follows
// ONE request — an epserve /v1/frontier call, a /v1/replay stream —
// through admission, singleflight, the frontier sweep and the
// queueing kernel, accumulating named attribute counts (configurations
// evaluated and pruned, replay steps) and a bounded phase timeline,
// which the spans opened by Start under its scope fill. The serve
// request scope mints one per request, stamps its ID on the
// X-Request-ID response header and the access-log line, and attaches
// the same ID as a Prometheus exemplar on the route's latency
// histogram, so a log line, a metric sample and a timeline all join on
// one identifier.
//
// Like the rest of the package, absence is free: code below the
// middleware asks the context.Context via RequestFrom, which returns
// nil when no request scope is attached, and every method is a no-op on
// a nil receiver — hot paths (Table.EvaluateFast, the percentile solves)
// stay allocation-free when nobody is watching. All methods are safe
// for concurrent use.
type RequestContext struct {
	id    string
	route string
	start time.Time

	mu      sync.Mutex
	outcome string
	attrs   map[string]int64
	events  []TimelineEvent
	dropped int
}

// maxTimelineEvents bounds one request's phase timeline; phases past
// the cap are counted as dropped rather than recorded, mirroring the
// Tracer's event cap.
const maxTimelineEvents = 64

// TimelineEvent is one completed phase of a request: its name, its
// start offset from the request's own start, and its duration.
type TimelineEvent struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start"`
	Dur   time.Duration `json:"dur"`
}

// NewRequestContext mints a request scope for the given route with a
// fresh random ID (see NewRequestID). Pass a non-empty id to adopt one
// from an upstream proxy's X-Request-ID header instead.
func NewRequestContext(id, route string) *RequestContext {
	if id == "" {
		id = NewRequestID()
	}
	return &RequestContext{id: id, route: route, start: time.Now()}
}

// NewRequestID returns a fresh 16-hex-character random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// recognizable constant rather than panicking in middleware.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the request ID ("" on a nil receiver).
func (rc *RequestContext) ID() string {
	if rc == nil {
		return ""
	}
	return rc.id
}

// Route returns the route label the request was minted under.
func (rc *RequestContext) Route() string {
	if rc == nil {
		return ""
	}
	return rc.route
}

// Elapsed returns the time since the request started.
func (rc *RequestContext) Elapsed() time.Duration {
	if rc == nil {
		return 0
	}
	return time.Since(rc.start)
}

// Add accumulates n into the named attribute. A no-op on nil, so
// instrumented layers attribute unconditionally.
func (rc *RequestContext) Add(key string, n int64) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	if rc.attrs == nil {
		rc.attrs = make(map[string]int64, 8)
	}
	rc.attrs[key] += n
	rc.mu.Unlock()
}

// Attr returns the named attribute's accumulated count (0 when unset
// or on a nil receiver).
func (rc *RequestContext) Attr(key string) int64 {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.attrs[key]
}

// Attrs returns a copy of the attribute bag (nil when empty).
func (rc *RequestContext) Attrs() map[string]int64 {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.attrs) == 0 {
		return nil
	}
	out := make(map[string]int64, len(rc.attrs))
	for k, v := range rc.attrs {
		out[k] = v
	}
	return out
}

// SetOutcome records the request's terminal disposition ("shed",
// "deadline", "panic", ...). The first non-empty outcome wins: the
// layer closest to the cause (admission, recovery) reports first and
// outer layers must not overwrite it.
func (rc *RequestContext) SetOutcome(s string) {
	if rc == nil || s == "" {
		return
	}
	rc.mu.Lock()
	if rc.outcome == "" {
		rc.outcome = s
	}
	rc.mu.Unlock()
}

// Outcome returns the recorded disposition ("" when none was set).
func (rc *RequestContext) Outcome() string {
	if rc == nil {
		return ""
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.outcome
}

// record appends a phase that ran from began to end to the timeline:
// Span.End of a span opened by Start under this request scope. Phases
// past the timeline cap are dropped (and counted).
func (rc *RequestContext) record(name string, began, end time.Time) {
	rc.mu.Lock()
	if len(rc.events) >= maxTimelineEvents {
		rc.dropped++
	} else {
		rc.events = append(rc.events, TimelineEvent{
			Name:  name,
			Start: began.Sub(rc.start),
			Dur:   end.Sub(began),
		})
	}
	rc.mu.Unlock()
}

// Timeline returns a copy of the recorded phases in completion order.
func (rc *RequestContext) Timeline() []TimelineEvent {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]TimelineEvent, len(rc.events))
	copy(out, rc.events)
	return out
}

// DroppedPhases returns how many phases were discarded at the cap.
func (rc *RequestContext) DroppedPhases() int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.dropped
}

// TimelineString renders the timeline in one compact field for
// slow-request log lines: "name@start+dur;..." with millisecond
// precision, sorted by phase start.
func (rc *RequestContext) TimelineString() string {
	events := rc.Timeline()
	if len(events) == 0 {
		return ""
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	var b strings.Builder
	for i, ev := range events {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s@%s+%s", ev.Name,
			ev.Start.Round(10*time.Microsecond), ev.Dur.Round(10*time.Microsecond))
	}
	if d := rc.DroppedPhases(); d > 0 {
		fmt.Fprintf(&b, ";(+%d dropped)", d)
	}
	return b.String()
}

// requestKey is the context key RequestContext travels under.
type requestKey struct{}

// WithRequest attaches rc to ctx. Attaching nil returns ctx unchanged.
func WithRequest(ctx context.Context, rc *RequestContext) context.Context {
	if rc == nil {
		return ctx
	}
	return context.WithValue(ctx, requestKey{}, rc)
}

// RequestFrom returns the RequestContext attached to ctx, or nil when
// the work is not request-scoped. The nil lookup allocates nothing, so
// hot paths may call it unconditionally.
func RequestFrom(ctx context.Context) *RequestContext {
	if ctx == nil {
		return nil
	}
	rc, _ := ctx.Value(requestKey{}).(*RequestContext)
	return rc
}
