package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// slowLogInterval rate-limits slow-request logging: at most one slow
// sample per route per interval. Slow requests cluster (an overloaded
// route is slow for everyone at once), so unsampled slow logging would
// amplify exactly the load that caused the slowness.
const slowLogInterval = time.Second

// latencyBounds are the http.<route>.seconds buckets: 10 µs up to
// ~2.6 s in powers of four, bracketing everything from a warm cache hit
// to a full frontier sweep.
var latencyBounds = telemetry.ExponentialBuckets(1e-5, 4, 10)

// requestScope is the outermost middleware on every route: it mints the
// request's telemetry.RequestContext (honoring a well-formed inbound
// X-Request-ID so IDs survive proxy hops), stamps the ID on the
// response header, and — after the inner chain returns — measures the
// request once: that one duration feeds the route's
// http.<route>.seconds histogram (with the request ID as exemplar),
// the SLO tracker and the one access-log line that summarizes the
// request: route, status, duration, bytes, outcome, and the
// attribution the layers below accumulated (configurations evaluated,
// coalescing, replay steps). It counts the route's requests into
// http.<route>.requests and their status classes into
// http.<route>.status_Nxx. Requests slower than the configured
// threshold additionally get a sampled warn line with the request's
// phase timeline inlined.
func (s *Server) requestScope(route string, probe bool, next http.Handler) http.Handler {
	reg := s.cfg.Telemetry
	requests := reg.Counter("http." + route + ".requests")
	seconds := reg.Histogram("http."+route+".seconds", latencyBounds)
	var statuses [5]*telemetry.Counter // status_1xx .. status_5xx
	for i := range statuses {
		statuses[i] = reg.Counter(fmt.Sprintf("http.%s.status_%dxx", route, i+1))
	}
	slo := s.slos[route] // nil for probes and unlisted routes: no SLO
	level := slog.LevelInfo
	if probe {
		// Probes are scrape traffic: one line per scrape at info would
		// dwarf the real access log, so they log at debug.
		level = slog.LevelDebug
	}
	var slowLast atomic.Int64 // unix nanos of the route's last slow log
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		rc := telemetry.NewRequestContext(sanitizeRequestID(r.Header.Get("X-Request-ID")), route)
		w.Header().Set("X-Request-ID", rc.ID())
		ctx := telemetry.WithRequest(r.Context(), rc)
		rec := telemetry.NewStatusRecorder(w)
		next.ServeHTTP(rec, r.WithContext(ctx))

		dur := rc.Elapsed()
		status := rec.Status()
		seconds.ObserveExemplar(dur.Seconds(), rc.ID())
		if class := status/100 - 1; class >= 0 && class < len(statuses) {
			statuses[class].Inc()
		}
		slo.observe(dur, status)

		if s.logger.Enabled(ctx, level) {
			attrs := make([]slog.Attr, 0, 16)
			attrs = append(attrs,
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Duration("duration", dur),
				slog.Int64("bytes", rec.Bytes()),
				slog.String("outcome", outcomeOf(rc, status)),
			)
			if !probe {
				// The model endpoints always carry the core attribution —
				// zeros included, so every line has the same shape — plus
				// any sweep/replay attribution that actually occurred.
				attrs = append(attrs,
					slog.Int64(telemetry.AttrConfigsEvaluated, rc.Attr(telemetry.AttrConfigsEvaluated)),
					slog.Int64(telemetry.AttrCoalesced, rc.Attr(telemetry.AttrCoalesced)),
				)
				for _, key := range []string{
					telemetry.AttrConfigsPruned, telemetry.AttrConfigsFiltered, telemetry.AttrReplaySteps,
				} {
					if v := rc.Attr(key); v != 0 {
						attrs = append(attrs, slog.Int64(key, v))
					}
				}
			}
			s.logger.LogAttrs(ctx, level, "request", attrs...)
		}

		if s.slowThreshold > 0 && dur >= s.slowThreshold && sampleSlow(&slowLast, slowLogInterval) {
			s.logger.LogAttrs(ctx, slog.LevelWarn, "slow request",
				slog.String("route", route),
				slog.Int("status", status),
				slog.Duration("duration", dur),
				slog.Duration("threshold", s.slowThreshold),
				slog.String("timeline", rc.TimelineString()),
			)
		}
	})
}

// sampleSlow claims the route's slow-log token if at least interval has
// passed since the last claim. The CompareAndSwap makes concurrent slow
// finishers race for one token instead of all logging.
func sampleSlow(last *atomic.Int64, interval time.Duration) bool {
	now := time.Now().UnixNano()
	prev := last.Load()
	if now-prev < int64(interval) {
		return false
	}
	return last.CompareAndSwap(prev, now)
}

// outcomeOf resolves the access log's outcome field: an explicit
// outcome set by the middleware chain (shed, deadline, panic) wins,
// otherwise the status class decides.
func outcomeOf(rc *telemetry.RequestContext, status int) string {
	if o := rc.Outcome(); o != "" {
		return o
	}
	switch {
	case status >= 500:
		return "error"
	case status >= 400:
		return "client_error"
	default:
		return "ok"
	}
}

// sanitizeRequestID accepts an inbound X-Request-ID only when it is
// short and unambiguous ([A-Za-z0-9._-], at most 64 bytes) — anything
// else (empty included) makes the middleware mint a fresh ID. Logs and
// the OpenMetrics exposition both carry the ID verbatim, so a hostile
// header must not be able to inject log lines or exemplar labels.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}
