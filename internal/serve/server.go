// Package serve is the long-running evaluation service over the
// repository's energy-proportionality model: epserve exposes the M/D/1
// tail-latency kernel, the Table 3 proportionality metrics and the
// energy-deadline Pareto frontier as HTTP endpoints
// (/v1/percentiles, /v1/epmetrics, /v1/frontier), plus health/readiness
// probes, a Prometheus /metrics exposition and /debug/pprof.
//
// The service is built to stay up under overload: a bounded admission
// semaphore sized off GOMAXPROCS with queue-depth load shedding
// (429 + Retry-After), per-request deadlines propagated through
// context.Context into the queueing kernel and the frontier engine,
// panic recovery that converts handler panics into 500s without
// killing the process, and graceful shutdown in which readiness flips
// before the listener drains. See docs/API.md for the endpoint
// reference and docs/METRICS.md for every metric the service emits.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hardware"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config parameterizes a Server. The zero value of every field selects
// a production-safe default.
type Config struct {
	// Catalog is the node-type catalog served; nil uses the built-in
	// A9/K10 (+A15/XeonE5) catalog.
	Catalog *hardware.Catalog
	// Workloads is the workload registry served; nil uses the six
	// calibrated paper workloads over Catalog.
	Workloads *workload.Registry
	// Telemetry receives the service's instruments and backs /metrics;
	// nil uses the process-global registry at construction time (which
	// may itself be nil, disabling collection but not the service).
	Telemetry *telemetry.Registry
	// Logger receives the service's structured logs: one access-log line
	// per request, sampled slow-request lines, and lifecycle events. nil
	// disables logging (matching the rest of the telemetry stack, which
	// is off until explicitly enabled). The handler is wrapped so that
	// request-scoped records automatically carry the request ID.
	Logger *slog.Logger
	// SlowRequest is the latency threshold past which a finished request
	// is logged at warn level with its phase timeline (sampled to at most
	// one line per route per second); 0 means 1s, negative disables.
	SlowRequest time.Duration

	// MaxInflight bounds concurrently executing model requests;
	// 0 means 2*GOMAXPROCS (the endpoints are CPU-bound, so admitting
	// far past the core count only grows tail latency).
	MaxInflight int
	// MaxQueue bounds requests waiting for a slot before load shedding
	// begins; 0 means 4*MaxInflight, negative means no waiting (shed as
	// soon as every slot is busy).
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the client does
	// not pass ?timeout=; 0 means 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested ?timeout= values; 0 means 60s.
	MaxTimeout time.Duration
}

// withDefaults returns cfg with every zero field resolved.
func (c Config) withDefaults() (Config, error) {
	if c.Catalog == nil {
		c.Catalog = hardware.DefaultCatalog()
	}
	if c.Workloads == nil {
		reg, err := workload.PaperRegistry(c.Catalog)
		if err != nil {
			return c, fmt.Errorf("serve: building workload registry: %w", err)
		}
		c.Workloads = reg
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Global()
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.Logger == nil {
		c.Logger = telemetry.DiscardLogger()
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
	return c, nil
}

// Server is the epserve HTTP service. Construct with New, start with
// Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	cfg      Config
	ins      instruments
	lim      *limiter
	analyses analysisCache
	mux      *http.ServeMux
	hs       *http.Server
	ready    atomic.Bool

	logger        *slog.Logger
	slowThreshold time.Duration
	slos          map[string]*sloTracker
	routes        []string // route labels in registration order
	build         BuildInfo
	started       time.Time

	// tables caches one memoized unit-calc table per workload profile
	// (keyed by the registry's *workload.Profile pointer) so repeated
	// frontier sweeps share a warm memo instead of rebuilding it. A
	// Table only ever grows monotonically under its own lock, so
	// concurrent sweeps may share an entry freely.
	tables sync.Map
}

// New builds a Server from cfg (see Config for defaults).
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		ins:           newInstruments(cfg.Telemetry),
		analyses:      analysisCache{resets: cfg.Telemetry.Counter("serve.analysis_cache_resets")},
		slowThreshold: cfg.SlowRequest,
		build:         ReadBuildInfo(),
		started:       time.Now(),
	}
	// The configured handler is wrapped (idempotently) so request-scoped
	// records always carry the request ID, whatever handler the caller
	// built.
	s.logger = slog.New(telemetry.NewContextHandler(cfg.Logger.Handler()))
	s.lim = newLimiter(cfg.MaxInflight, cfg.MaxQueue, &s.ins)
	s.slos = make(map[string]*sloTracker, len(sloTargets))
	for route, target := range sloTargets {
		s.slos[route] = newSLOTracker(cfg.Telemetry, route, target)
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/percentiles", s.apiWeighted("percentiles", s.weighPercentiles, s.handlePercentiles))
	mux.Handle("/v1/epmetrics", s.apiWeighted("epmetrics", s.weighEpmetrics, s.handleEpmetrics))
	mux.Handle("/v1/frontier", s.apiWeighted("frontier", s.weighFrontier, s.handleFrontier))
	mux.Handle("/v1/replay", s.api("replay", s.handleReplay))
	mux.Handle("/v1/healthz", s.probe("healthz", s.handleHealthz))
	mux.Handle("/v1/readyz", s.probe("readyz", s.handleReadyz))
	mux.Handle("/v1/version", s.probe("version", s.handleVersion))
	mux.Handle("/v1/debug/stats", s.probe("debug_stats", s.handleDebugStats))
	mux.Handle("/metrics", s.probe("metrics", cfg.Telemetry.PrometheusHandler().ServeHTTP))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", s.handleIndex)
	s.mux = mux

	s.hs = &http.Server{
		Handler: mux,
		// Bound header read time (slowloris) but leave the body/write
		// budget to the per-request deadline middleware, which knows the
		// real limit.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	return s, nil
}

// Handler returns the service's root handler — useful for tests and for
// mounting the service under an outer mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve marks the service ready and serves connections on ln until
// Shutdown. It returns nil after a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.ready.Store(true)
	err := s.hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and calls Serve. It returns the bound
// listener address on the ready channel if addrCh is non-nil (useful
// with ":0" addresses), then blocks like Serve.
func (s *Server) ListenAndServe(addr string, addrCh chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrCh != nil {
		addrCh <- ln.Addr()
	}
	return s.Serve(ln)
}

// Shutdown drains the service: readiness flips to false first (so
// load balancers watching /v1/readyz stop routing new work), then the
// listener closes and in-flight requests run to completion, bounded by
// ctx. It is the SIGTERM path of cmd/epserve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	return s.hs.Shutdown(ctx)
}

// api assembles the middleware chain of a model endpoint, outermost
// first: the request scope (request ID, per-route counters and latency
// histogram, access log, SLO accounting — outermost so even shed
// requests are counted and timed, and everything below shares its
// RequestContext), panic recovery, the per-request deadline, then
// admission at the default cost of 1 unit.
func (s *Server) api(route string, h http.HandlerFunc) http.Handler {
	return s.apiWeighted(route, nil, func(w http.ResponseWriter, r *http.Request, _ any) { h(w, r) })
}

// apiWeighted is api with a per-route admission weigher: weigh runs
// inside the deadline but before admission, decodes the request exactly
// once and computes its admission cost, and the handler receives what
// it decoded.
func (s *Server) apiWeighted(route string, weigh admissionWeigher, h decodedHandler) http.Handler {
	s.routes = append(s.routes, route)
	return s.requestScope(route, false, s.recovery(s.deadline(s.admission(weigh, h))))
}

// probe assembles the chain of a health/metrics endpoint: request
// scope and panic recovery only — probes must keep answering
// under overload and during drain, so they bypass admission and
// deadlines. Probe access logs sit at debug level so scrapes do not
// drown the real traffic log.
func (s *Server) probe(route string, h http.HandlerFunc) http.Handler {
	s.routes = append(s.routes, route)
	return s.requestScope(route, true, s.recovery(h))
}

// recovery converts a handler panic into a 500 response and counts it,
// keeping the process (and the other in-flight requests) alive. The
// net/http server would otherwise kill the connection with no response;
// a panicking kernel bug must degrade one request, not the service.
func (s *Server) recovery(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.ins.panics.Inc()
				telemetry.RequestFrom(r.Context()).SetOutcome("panic")
				writeError(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next(w, r)
	}
}

// deadline attaches the per-request deadline to the request context:
// the client's ?timeout= (clamped to MaxTimeout) or DefaultTimeout.
// Handlers pass the context into the kernel and the frontier engine,
// and batches check it between items, so the deadline cancels
// percentile batches and frontier sweeps mid-flight.
func (s *Server) deadline(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := s.cfg.DefaultTimeout
		if raw := r.URL.Query().Get("timeout"); raw != "" {
			parsed, err := time.ParseDuration(raw)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_request",
					fmt.Sprintf("invalid timeout %q: %v", raw, err))
				return
			}
			if parsed <= 0 {
				writeError(w, http.StatusBadRequest, "bad_request",
					"timeout must be positive")
				return
			}
			d = min(parsed, s.cfg.MaxTimeout)
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next(w, r.WithContext(ctx))
	}
}

// admissionWeigher decodes a request and computes its admission cost
// before the semaphore is consulted. It may reject the request itself
// (writing the error and returning ok=false); what it decoded goes to
// the route's handler. A nil weigher costs 1 unit and decodes nothing.
type admissionWeigher func(w http.ResponseWriter, r *http.Request) (weight int64, decoded any, ok bool)

// decodedHandler is a route handler that receives what its weigher
// decoded (nil without a weigher).
type decodedHandler func(w http.ResponseWriter, r *http.Request, decoded any)

// admission applies the bounded weighted semaphore: shed with 429 +
// Retry-After when the queue is full, 504 when the deadline expires
// while queued. The weigher runs first, so a batch of N items charges
// N units and sheds exactly like N scalar requests would.
func (s *Server) admission(weigh admissionWeigher, next decodedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		weight, decoded := int64(1), any(nil)
		if weigh != nil {
			var ok bool
			if weight, decoded, ok = weigh(w, r); !ok {
				return
			}
		}
		release, err := s.lim.acquire(r.Context(), weight)
		if err != nil {
			if errors.Is(err, errShed) {
				telemetry.RequestFrom(r.Context()).SetOutcome("shed")
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "overloaded",
					"admission queue full, retry later")
				return
			}
			s.deadlineError(w, r, err)
			return
		}
		defer release()
		next(w, r, decoded)
	}
}

// deadlineError maps a context error to the 504 response, counter and
// request outcome.
func (s *Server) deadlineError(w http.ResponseWriter, r *http.Request, err error) {
	s.ins.deadlineExceeded.Inc()
	telemetry.RequestFrom(r.Context()).SetOutcome("deadline")
	msg := "request deadline exceeded"
	if errors.Is(err, context.Canceled) {
		msg = "request cancelled"
	}
	writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", msg)
}

// handleIndex serves a JSON endpoint listing at "/" and a JSON 404
// elsewhere, so probes against wrong paths fail loudly and uniformly.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no such endpoint %q", r.URL.Path))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"service": "epserve",
		"endpoints": []string{
			"/v1/percentiles", "/v1/epmetrics", "/v1/frontier", "/v1/replay",
			"/v1/healthz", "/v1/readyz", "/v1/version", "/v1/debug/stats",
			"/metrics", "/debug/pprof/",
		},
	})
}

// errorBody is the uniform error envelope of every non-2xx response.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError writes the JSON error envelope {"error":{code,message}}.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]errorBody{"error": {Code: code, Message: msg}})
}

// encodeBufPool recycles the JSON encode buffers of writeJSON. Encoding
// into a pooled buffer instead of straight onto the ResponseWriter
// removes the per-response buffer growth from the warm hot path and
// lets the response carry a Content-Length (no chunked framing on
// small bodies).
var encodeBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// encodeBufMax bounds the buffers returned to the pool; one-off giant
// batch responses must not pin their footprint forever.
const encodeBufMax = 1 << 20

// writeJSON writes v as a JSON response with the given status, through
// a pooled encode buffer. Responses are compact: encoder indentation
// re-scans the entire body and dominated the batch hot path's CPU
// profile (~40%) before it was dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	if err := enc.Encode(v); err != nil {
		// Marshalling pure value types cannot fail; degrade loudly
		// rather than silently truncating.
		buf.Reset()
		fmt.Fprintf(buf, `{"error":{"code":"internal","message":%q}}`, err.Error())
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // header already sent; client gone
	if buf.Cap() <= encodeBufMax {
		encodeBufPool.Put(buf)
	}
}
