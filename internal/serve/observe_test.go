package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// logBuffer is a goroutine-safe log sink for handler tests.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// Lines returns the non-empty log lines captured so far.
func (l *logBuffer) Lines() []string {
	s := strings.TrimSpace(l.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// newLoggedServer builds a Server whose JSON debug-level logs land in
// the returned buffer. Requests go through srv.Handler() directly
// (synchronously), so log lines are complete when ServeHTTP returns.
func newLoggedServer(t *testing.T, cfg Config) (*Server, *logBuffer) {
	t.Helper()
	buf := &logBuffer{}
	logger, err := telemetry.NewLogger(buf, "json", "debug")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	cfg.Logger = logger
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.ready.Store(true)
	return srv, buf
}

// do issues one synchronous request through the full handler chain.
func do(t *testing.T, srv *Server, method, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// send issues one synchronous request with a body through the full
// handler chain.
func send(srv *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// accessLine finds the last access-log line for the given route and
// decodes it into a generic map.
func accessLine(t *testing.T, buf *logBuffer, route string) map[string]any {
	t.Helper()
	var found map[string]any
	for _, line := range buf.Lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		if rec["msg"] == "request" && rec["route"] == route {
			found = rec
		}
	}
	if found == nil {
		t.Fatalf("no access-log line for route %q in:\n%s", route, buf.String())
	}
	return found
}

// TestRequestIDEndToEnd follows one request through the three places
// its ID must appear: the X-Request-ID response header, the access-log
// line, and the route histogram's OpenMetrics exemplar.
func TestRequestIDEndToEnd(t *testing.T) {
	srv, buf := newLoggedServer(t, Config{})
	const inbound = "e2e-test-id.0001"
	rec := do(t, srv, http.MethodGet, "/v1/percentiles?d=1&u=0.9", map[string]string{"X-Request-ID": inbound})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	// 1. Response header echoes the sanitized inbound ID.
	if got := rec.Header().Get("X-Request-ID"); got != inbound {
		t.Fatalf("X-Request-ID header %q, want %q", got, inbound)
	}
	// 2. The access-log line carries the same ID plus the RED and
	// attribution fields.
	line := accessLine(t, buf, "percentiles")
	if line["request_id"] != inbound {
		t.Fatalf("access log request_id %v, want %q", line["request_id"], inbound)
	}
	for _, key := range []string{"status", "duration", "bytes", "outcome",
		"configs_evaluated", "coalesced"} {
		if _, ok := line[key]; !ok {
			t.Errorf("access log missing %q: %v", key, line)
		}
	}
	if line["status"] != float64(200) || line["outcome"] != "ok" {
		t.Fatalf("access log status/outcome = %v/%v", line["status"], line["outcome"])
	}
	// 3. The OpenMetrics exposition carries the ID as an exemplar on the
	// route's latency histogram.
	mrec := do(t, srv, http.MethodGet, "/metrics", map[string]string{"Accept": "application/openmetrics-text"})
	body := mrec.Body.String()
	if !strings.Contains(body, `http_percentiles_seconds_bucket`) {
		t.Fatalf("/metrics missing percentiles histogram:\n%s", body)
	}
	if !strings.Contains(body, `# {request_id="`+inbound+`"}`) {
		t.Fatalf("/metrics missing exemplar for %q:\n%s", inbound, body)
	}
	if !strings.HasSuffix(strings.TrimSpace(body), "# EOF") {
		t.Fatal("OpenMetrics exposition must end with # EOF")
	}
}

func TestRequestIDMintedAndSanitized(t *testing.T) {
	srv, _ := newLoggedServer(t, Config{})
	// No inbound header: a fresh 16-hex ID is minted.
	rec := do(t, srv, http.MethodGet, "/v1/healthz", nil)
	if id := rec.Header().Get("X-Request-ID"); len(id) != 16 {
		t.Fatalf("minted ID %q, want 16 hex chars", id)
	}
	// A hostile inbound ID (spaces, quotes — log/exemplar injection) is
	// replaced, not echoed.
	rec = do(t, srv, http.MethodGet, "/v1/healthz", map[string]string{"X-Request-ID": `evil" id`})
	if id := rec.Header().Get("X-Request-ID"); strings.Contains(id, `"`) || strings.Contains(id, " ") || len(id) != 16 {
		t.Fatalf("hostile inbound ID echoed as %q", id)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	for in, want := range map[string]string{
		"abc-123_x.Y":           "abc-123_x.Y",
		"":                      "",
		"has space":             "",
		`q"uote`:                "",
		"newline\nx":            "",
		"ünïcode":               "",
		strings.Repeat("a", 64): strings.Repeat("a", 64),
		strings.Repeat("a", 65): "",
	} {
		if got := sanitizeRequestID(in); got != want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestAccessLogFrontierAttribution: a frontier request's line must
// carry the sweep attribution accumulated below the handler, annotated
// or not. Everything runs on the request's goroutine, so no line names
// pool items.
func TestAccessLogFrontierAttribution(t *testing.T) {
	srv, buf := newLoggedServer(t, Config{})
	for _, query := range []string{"workload=EP&max_a9=3&max_k10=2", "workload=EP&max_a9=3&max_k10=2&u=0.5"} {
		rec := do(t, srv, http.MethodGet, "/v1/frontier?"+query, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		line := accessLine(t, buf, "frontier")
		if n, _ := line["configs_evaluated"].(float64); n <= 0 {
			t.Fatalf("%s: configs_evaluated = %v, want > 0: %v", query, line["configs_evaluated"], line)
		}
		if v, ok := line["sweep_items"]; ok {
			t.Fatalf("%s: logged sweep_items = %v: %v", query, v, line)
		}
	}
}

// slowLine returns the single slow-request line in buf.
func slowLine(t *testing.T, buf *logBuffer) map[string]any {
	t.Helper()
	var slow map[string]any
	for _, line := range buf.Lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		if rec["msg"] == "slow request" {
			slow = rec
		}
	}
	if slow == nil {
		t.Fatalf("no slow-request line in:\n%s", buf.String())
	}
	return slow
}

// replay288Body replays the 1 kW budget ladder over one day of
// 5-minute steps.
const replay288Body = `{"budget":true,"adaptive":true,"slo_seconds":0.5,` +
	`"shape":{"kind":"diurnal","mean":0.35,"amplitude":0.3,"step_seconds":300,"steps":288}}`

// TestSlowRequestLogFires: with a tiny threshold every request is
// "slow"; the sampled warn line with the phase timeline must appear and
// name the phases the layers below timed on the request: the sweep
// phases of a frontier request, the latency annotation of an annotated
// one, a replay's run and a percentiles batch.
func TestSlowRequestLogFires(t *testing.T) {
	for _, tc := range []struct {
		method, target, body string
		phases               []string
	}{
		{http.MethodGet, "/v1/frontier?workload=EP&max_a9=2&max_k10=1", "",
			[]string{"serve.frontier_sweep@", "pareto.frontier_sweep@"}},
		{http.MethodGet, "/v1/frontier?workload=EP&max_a9=2&max_k10=1&u=0.5", "",
			[]string{"serve.frontier_sweep@", "pareto.frontier_sweep@", "pareto.annotate_latencies@"}},
		{http.MethodPost, "/v1/replay", replay288Body, []string{"replay.run@"}},
		{http.MethodPost, "/v1/percentiles", `{"p":[95,99],"items":[{"d":1,"u":[0.5,0.9]}]}`,
			[]string{"queueing.percentiles@"}},
	} {
		srv, buf := newLoggedServer(t, Config{SlowRequest: time.Nanosecond})
		rec := send(srv, tc.method, tc.target, tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", tc.method, tc.target, rec.Code, rec.Body)
		}
		slow := slowLine(t, buf)
		if slow["level"] != "WARN" {
			t.Fatalf("slow request logged at %v, want WARN", slow["level"])
		}
		timeline, _ := slow["timeline"].(string)
		for _, phase := range tc.phases {
			if !strings.Contains(timeline, phase) {
				t.Fatalf("%s %s: slow-request timeline %q missing %s", tc.method, tc.target, timeline, phase)
			}
		}
		if _, ok := slow["request_id"]; !ok {
			t.Fatalf("slow-request line missing request_id: %v", slow)
		}
	}
}

// TestServerKeepsNoSpanLog: a server built the way cmd/epserve builds
// it — one registry installed globally and passed as Config.Telemetry —
// times request work on each request's own timeline, so the process
// tracer keeps no span however many requests it answers.
func TestServerKeepsNoSpanLog(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	srv, err := New(Config{Telemetry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.ready.Store(true)
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodGet, "/v1/percentiles?d=1&u=0.7&p=95&p=99", ""},
		{http.MethodGet, "/v1/percentiles?d=1&u=0.7&p=95&kernel=mg1&scv=0.5", ""},
		{http.MethodGet, "/v1/percentiles?d=1&u=0.7&p=95&kernel=mmk&servers=4", ""},
		{http.MethodPost, "/v1/percentiles", `{"p":[95,99],"items":[{"d":1,"u":[0.5,0.9]}]}`},
		{http.MethodPost, "/v1/percentiles", `{"p":[95],"kernel":"mg1","scv":0.5,"items":[{"d":1,"u":[0.7]}]}`},
		{http.MethodPost, "/v1/percentiles", `{"p":[95],"items":[{"d":1,"u":[0.7],"kernel":"mmk","servers":4}]}`},
		{http.MethodGet, "/v1/epmetrics?workload=EP&mix=16xA9,2xK10&ref=32xA9,12xK10", ""},
		{http.MethodGet, "/v1/frontier?workload=EP&max_a9=4&max_k10=2&dvfs=true&u=0.6&p=95", ""},
		{http.MethodPost, "/v1/replay", replay288Body},
		{http.MethodGet, "/v1/healthz", ""},
		{http.MethodGet, "/v1/readyz", ""},
		{http.MethodGet, "/v1/version", ""},
		{http.MethodGet, "/v1/debug/stats", ""},
		{http.MethodGet, "/metrics", ""},
	} {
		rec := send(srv, tc.method, tc.target, tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", tc.method, tc.target, rec.Code, rec.Body)
		}
		if n := reg.Tracer().Len(); n != 0 {
			t.Fatalf("%s %s left %d spans on the process tracer, want 0", tc.method, tc.target, n)
		}
	}
}

// TestRouteInstruments: the request scope counts a route's requests and
// their status classes (a handled 4xx and a recovered panic's 5xx
// included), observes each request once into the route's latency
// histogram with its request ID as exemplar, and that observation is
// the access log's duration.
func TestRouteInstruments(t *testing.T) {
	reg := telemetry.New()
	srv, buf := newLoggedServer(t, Config{Telemetry: reg})
	h := srv.api("demo", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/fail":
			writeError(w, http.StatusBadRequest, "bad_request", "fail")
		case "/boom":
			panic("kaboom")
		default:
			w.Write([]byte("ok")) //nolint:errcheck
		}
	})
	seconds := reg.Histogram("http.demo.seconds", nil)
	for i, path := range []string{"/", "/", "/fail", "/boom"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-Request-ID", fmt.Sprintf("demo-%d", i))
		h.ServeHTTP(httptest.NewRecorder(), req)
		if i == 0 {
			// One request: the histogram holds exactly its duration.
			ns, _ := accessLine(t, buf, "demo")["duration"].(float64)
			if got, want := seconds.Sum(), time.Duration(ns).Seconds(); seconds.Count() != 1 || got != want {
				t.Fatalf("after one request: count %d, sum %v s; access log duration %v s", seconds.Count(), got, want)
			}
			ex := seconds.Exemplars()
			if len(ex) != 1 || ex[0].RequestID != "demo-0" {
				t.Fatalf("exemplars %+v, want one labelled demo-0", ex)
			}
		}
	}
	for name, want := range map[string]uint64{
		"http.demo.requests": 4, "http.demo.status_2xx": 2, "http.demo.status_4xx": 1, "http.demo.status_5xx": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := seconds.Count(); got != 4 {
		t.Errorf("latency observations = %d, want 4 (one per request)", got)
	}
}

// TestServeWithoutRegistry: with no registry installed or passed, every
// instrument is a nil no-op and every route still answers.
func TestServeWithoutRegistry(t *testing.T) {
	if telemetry.Global() != nil {
		t.Fatal("a global registry is installed")
	}
	srv, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.ready.Store(true)
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodGet, "/v1/percentiles?d=1&u=0.7&p=95", ""},
		{http.MethodPost, "/v1/percentiles", `{"p":[95],"items":[{"d":1,"u":[0.7]}]}`},
		{http.MethodGet, "/v1/epmetrics?workload=EP&mix=16xA9,2xK10&ref=32xA9,12xK10", ""},
		{http.MethodGet, "/v1/frontier?workload=EP&max_a9=4&max_k10=2&u=0.6", ""},
		{http.MethodPost, "/v1/replay", smallShapeBody},
		{http.MethodGet, "/v1/healthz", ""},
		{http.MethodGet, "/v1/readyz", ""},
		{http.MethodGet, "/v1/version", ""},
		{http.MethodGet, "/v1/debug/stats", ""},
		{http.MethodGet, "/metrics", ""},
	} {
		rec := send(srv, tc.method, tc.target, tc.body)
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: status %d: %s", tc.method, tc.target, rec.Code, rec.Body)
		}
	}
	if rec := do(t, srv, http.MethodGet, "/v1/percentiles?d=1&u=1.5", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad u: status %d, want 400", rec.Code)
	}
}

// TestSlowRequestDisabled: negative threshold disables slow logging.
func TestSlowRequestDisabled(t *testing.T) {
	srv, buf := newLoggedServer(t, Config{SlowRequest: -1})
	do(t, srv, http.MethodGet, "/v1/percentiles?d=1&u=0.5", nil)
	if strings.Contains(buf.String(), "slow request") {
		t.Fatalf("slow logging fired despite negative threshold:\n%s", buf.String())
	}
}

// TestSlowRequestSampled: back-to-back slow requests within the sample
// interval produce exactly one slow line.
func TestSlowRequestSampled(t *testing.T) {
	srv, buf := newLoggedServer(t, Config{SlowRequest: time.Nanosecond})
	for i := 0; i < 5; i++ {
		do(t, srv, http.MethodGet, "/v1/percentiles?d=1&u=0.5", nil)
	}
	if n := strings.Count(buf.String(), `"slow request"`); n != 1 {
		t.Fatalf("%d slow-request lines for 5 requests inside one sample interval, want 1", n)
	}
}

func TestProbeLogsAtDebug(t *testing.T) {
	srv, buf := newLoggedServer(t, Config{})
	do(t, srv, http.MethodGet, "/v1/healthz", nil)
	line := accessLine(t, buf, "healthz")
	if line["level"] != "DEBUG" {
		t.Fatalf("probe access log at %v, want DEBUG", line["level"])
	}
}

func TestAccessLogShedOutcome(t *testing.T) {
	reg := telemetry.New()
	srv, buf := newLoggedServer(t, Config{Telemetry: reg, MaxInflight: 1, MaxQueue: -1})
	// Hold the only slot so the next request sheds.
	release := make(chan struct{})
	go func() {
		rel, _ := srv.lim.acquire(context.Background(), 1) // free slot guaranteed
		<-release
		rel()
	}()
	for srv.ins.inflight.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	rec := do(t, srv, http.MethodGet, "/v1/percentiles?d=1&u=0.5", nil)
	close(release)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	line := accessLine(t, buf, "percentiles")
	if line["outcome"] != "shed" {
		t.Fatalf("outcome %v, want shed: %v", line["outcome"], line)
	}
}

func TestVersionEndpoint(t *testing.T) {
	srv, _ := newLoggedServer(t, Config{})
	rec := do(t, srv, http.MethodGet, "/v1/version", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var info BuildInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("decoding /v1/version: %v", err)
	}
	if info.Service != "epserve" || info.GoVersion == "" || info.Version == "" {
		t.Fatalf("BuildInfo %+v", info)
	}
	if s := info.String(); !strings.Contains(s, "epserve") || !strings.Contains(s, info.GoVersion) {
		t.Fatalf("BuildInfo.String() = %q", s)
	}
}

// TestDebugStatsRoundTrip: /v1/debug/stats must be valid JSON that
// decodes into DebugStatsResponse with the per-route RED and SLO data
// filled in after traffic.
func TestDebugStatsRoundTrip(t *testing.T) {
	reg := telemetry.New()
	srv, _ := newLoggedServer(t, Config{Telemetry: reg})
	// The queueing kernel registers its counters on the process-global
	// registry (cmd/epserve installs one); mirror that wiring here so the
	// snapshot includes them.
	telemetry.SetGlobal(reg)
	t.Cleanup(func() { telemetry.SetGlobal(nil) })
	for i := 0; i < 3; i++ {
		do(t, srv, http.MethodGet, "/v1/percentiles?d=1&u=0.9", nil)
	}
	do(t, srv, http.MethodGet, "/v1/percentiles?d=1&u=1.5", nil) // 400

	rec := do(t, srv, http.MethodGet, "/v1/debug/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var stats DebugStatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decoding /v1/debug/stats: %v", err)
	}
	if stats.Service != "epserve" || stats.Build.GoVersion == "" {
		t.Fatalf("service/build block %+v", stats)
	}
	rs, ok := stats.Routes["percentiles"]
	if !ok {
		t.Fatalf("routes missing percentiles: %v", stats.Routes)
	}
	if rs.Requests != 4 || rs.Status["2xx"] != 3 || rs.Status["4xx"] != 1 {
		t.Fatalf("percentiles RED %+v", rs)
	}
	if rs.Latency == nil || rs.Latency.Count != 4 || rs.Latency.P99Seconds <= 0 {
		t.Fatalf("percentiles latency %+v", rs.Latency)
	}
	if rs.SLO == nil || rs.SLO.Good+rs.SLO.Breach != 4 {
		t.Fatalf("percentiles SLO %+v", rs.SLO)
	}
	if stats.Admission.Admitted != 4 {
		t.Fatalf("admitted = %d, want 4", stats.Admission.Admitted)
	}
	if _, ok := stats.Counters["serve.admitted"]; !ok {
		t.Fatalf("counters missing serve.admitted: %v", stats.Counters)
	}
	if _, ok := stats.Counters["queueing.percentile_searches"]; !ok {
		t.Fatalf("counters missing queueing.percentile_searches: %v", stats.Counters)
	}
	for name := range stats.Counters {
		if strings.HasPrefix(name, "http.") || strings.HasPrefix(name, "slo.") {
			t.Fatalf("counter %q should be folded into Routes, not repeated", name)
		}
	}
	// Round-trip: the decoded struct re-marshals cleanly.
	if _, err := json.Marshal(stats); err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
}

func TestSLOTracker(t *testing.T) {
	reg := telemetry.New()
	tr := newSLOTracker(reg, "percentiles", SLOTarget{P99: 10 * time.Millisecond, Goal: 0.9})
	tr.observe(time.Millisecond, 200)    // good
	tr.observe(20*time.Millisecond, 200) // breach: too slow
	tr.observe(time.Millisecond, 500)    // breach: 5xx
	tr.observe(time.Millisecond, 429)    // breach: shed
	tr.observe(time.Millisecond, 404)    // good: client error inside latency target
	st := tr.status()
	if st.Good != 2 || st.Breach != 3 {
		t.Fatalf("good/breach = %d/%d, want 2/3", st.Good, st.Breach)
	}
	if want := 2.0 / 5.0; st.Compliance != want {
		t.Fatalf("compliance %g, want %g", st.Compliance, want)
	}
	// Budget: (1-0.9)*5 = 0.5 allowed breaches; 3 spent → 6x over.
	if want := 3 / 0.5; math.Abs(st.BudgetUsed-want) > 1e-9 {
		t.Fatalf("budget used %g, want %g", st.BudgetUsed, want)
	}
	if reg.Counter("slo.percentiles.breach").Value() != 3 {
		t.Fatal("breach counter not exported on the registry")
	}

	// Nil tracker (route without an SLO) is a no-op with no status.
	var nilTr *sloTracker
	nilTr.observe(time.Second, 500)
	if nilTr.status() != nil {
		t.Fatal("nil tracker must have nil status")
	}

	// Empty tracker: full compliance, zero burn.
	empty := newSLOTracker(reg, "other", SLOTarget{P99: time.Second, Goal: 0.99})
	if st := empty.status(); st.Compliance != 1 || st.BudgetUsed != 0 {
		t.Fatalf("empty tracker status %+v", st)
	}
}
