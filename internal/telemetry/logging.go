package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Standard attribute keys the instrumented layers accumulate into a
// RequestContext, shared here so the producers (pareto, replay, serve)
// and the consumers (access log, /v1/debug/stats) agree on spelling.
const (
	// AttrConfigsEvaluated counts configurations run through the
	// time-energy model on behalf of the request.
	AttrConfigsEvaluated = "configs_evaluated"
	// AttrConfigsPruned counts configurations a frontier sweep proved
	// dominated off the per-type staircases, without evaluating them.
	AttrConfigsPruned = "configs_pruned"
	// AttrConfigsFiltered counts configurations over a sweep's
	// peak-power budget.
	AttrConfigsFiltered = "configs_filtered"
	// AttrReplaySteps counts trace steps replayed for the request.
	AttrReplaySteps = "replay_steps"
	// AttrBatchItems counts the expanded per-item evaluations a batch
	// (POST) request carried.
	AttrBatchItems = "batch_items"
)

// ParseLogLevel maps the conventional level names onto slog levels.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogHandler builds the repository's shared structured-log handler:
// format "text" (the default) or "json", filtered at the given level,
// writing to w. Every handler is wrapped so that records logged with a
// request-scoped context automatically carry the request_id and route
// attributes — one flag pair gives every tool the same log shape.
func NewLogHandler(w io.Writer, format, level string) (slog.Handler, error) {
	lvl, err := ParseLogLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text or json)", format)
	}
	return NewContextHandler(h), nil
}

// NewLogger is NewLogHandler wrapped in a *slog.Logger.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	h, err := NewLogHandler(w, format, level)
	if err != nil {
		return nil, err
	}
	return slog.New(h), nil
}

// ContextHandler decorates an slog.Handler with request correlation:
// when the logging context carries a RequestContext, the emitted record
// gains request_id (and route, when the record does not already carry
// one) — so any log line written anywhere below the serve middleware
// joins against the access log and the metric exemplars without the
// call site threading IDs by hand.
type ContextHandler struct {
	inner slog.Handler
}

// NewContextHandler wraps inner. Wrapping an existing ContextHandler
// returns it unchanged.
func NewContextHandler(inner slog.Handler) slog.Handler {
	if _, ok := inner.(*ContextHandler); ok {
		return inner
	}
	return &ContextHandler{inner: inner}
}

// Enabled forwards to the wrapped handler.
func (h *ContextHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	return h.inner.Enabled(ctx, lvl)
}

// Handle appends the context's request attributes and forwards.
func (h *ContextHandler) Handle(ctx context.Context, rec slog.Record) error {
	if rc := RequestFrom(ctx); rc != nil {
		rec = rec.Clone()
		rec.AddAttrs(slog.String("request_id", rc.ID()))
	}
	return h.inner.Handle(ctx, rec)
}

// WithAttrs forwards, preserving the wrapper.
func (h *ContextHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &ContextHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup forwards, preserving the wrapper.
func (h *ContextHandler) WithGroup(name string) slog.Handler {
	return &ContextHandler{inner: h.inner.WithGroup(name)}
}

// discardHandler drops every record (slog.DiscardHandler arrives only
// in later Go releases than this module targets).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// DiscardLogger returns a logger that drops everything — the default
// for components whose caller did not install one, keeping logging
// (like the rest of the package) disabled until explicitly enabled.
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }
