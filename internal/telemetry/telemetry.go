// Package telemetry is the repository's zero-dependency observability
// layer: a concurrency-safe metrics registry (counters, gauges and
// fixed-bucket histograms with quantile summaries), a lightweight span
// tracer that exports Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto), and a deterministic count-based
// progress reporter for long sweeps.
//
// The paper this repository reproduces is a measurement study — perf
// counters and a wall power meter — and the simulated substrate gets the
// same treatment: the DES engine, the cluster simulator, the queueing
// solvers, the Pareto sweeps and the adaptive planner all emit into a
// registry when one is installed.
//
// Instrumentation is disabled by default and every entry point is
// nil-safe: a nil *Registry hands out nil instruments, and operations on
// nil instruments are no-ops costing about a nanosecond (see the
// package benchmarks), so hot paths stay hot when nobody is watching.
// Enable collection process-wide with
//
//	reg := telemetry.New()
//	telemetry.SetGlobal(reg)
//	defer telemetry.SetGlobal(nil)
//
// or hand a *Registry to components that accept one directly.
package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe namespace of instruments. Instruments
// are created on first use and shared by name: two callers asking for
// counter "des.events_fired" increment the same cell.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	histOrder []string // creation order for stable iteration
	tracer    *Tracer
}

// New returns an empty registry with an attached span tracer.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracer:   NewTracer(),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, on which every operation is a no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending) on first use; later calls ignore the
// bounds and return the existing histogram. A nil registry returns nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
		r.histOrder = append(r.histOrder, name)
	}
	return h
}

// Tracer returns the registry's span tracer, or nil for a nil registry.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// global is the process-wide registry; nil means telemetry is disabled.
var global atomic.Pointer[Registry]

// SetGlobal installs r as the process-wide registry. Pass nil to
// disable collection again. Components read the global at construction
// or call time, so install it before building the objects to observe.
func SetGlobal(r *Registry) {
	global.Store(r)
}

// Global returns the process-wide registry, which is nil until
// SetGlobal installs one.
func Global() *Registry {
	return global.Load()
}

// StartSpan opens a span on the global registry's tracer; it returns a
// nil (no-op) span when telemetry is disabled. Code with no context
// (a CLI run, a simulation) opens its spans here.
func StartSpan(name string) *Span {
	return Global().Tracer().Start(name)
}

// Start is the one timing primitive of code that takes a context. When
// ctx carries a RequestContext the span ends on that request's
// timeline, so a long-running server keeps no span log; otherwise it is
// StartSpan's span on the global tracer (nil when telemetry is off).
//
//	defer telemetry.Start(ctx, "pareto.annotate_latencies").End()
func Start(ctx context.Context, name string) *Span {
	if rc := RequestFrom(ctx); rc != nil {
		return &Span{rc: rc, name: name, begin: time.Now()}
	}
	return StartSpan(name)
}
