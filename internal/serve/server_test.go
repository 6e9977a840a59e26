package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// newTestServer builds a Server with its own registry and an httptest
// frontend over its full handler.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.ready.Store(true)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path string
		status     int
		contains   string
	}{
		{"percentiles raw", "/v1/percentiles?d=1&u=0.9", 200, `"mean_wait_seconds":4.5`},
		{"percentiles model", "/v1/percentiles?workload=EP&mix=32xA9,12xK10&u=0.5&p=95", 200, `"percentiles"`},
		{"percentiles default ps", "/v1/percentiles?d=0.5&u=0", 200, `"p":99`},
		{"percentiles missing u", "/v1/percentiles?d=1", 400, "missing u="},
		{"percentiles bad u", "/v1/percentiles?d=1&u=1.5", 400, "outside [0, 1)"},
		{"percentiles unstable", "/v1/percentiles?d=-2&u=0.9", 400, "positive"},
		{"percentiles both modes", "/v1/percentiles?d=1&mix=32xA9&u=0.5", 400, "not both"},
		{"percentiles bad p", "/v1/percentiles?d=1&u=0.5&p=abc", 400, "invalid percentile"},
		{"percentiles unknown workload", "/v1/percentiles?workload=nope&mix=32xA9&u=0.5", 404, "nope"},
		{"epmetrics", "/v1/epmetrics?workload=EP&mix=32xA9,12xK10", 200, `"dpr"`},
		{"epmetrics with ref", "/v1/epmetrics?workload=EP&mix=16xA9,2xK10&ref=32xA9,12xK10", 200, `"sublinear"`},
		{"epmetrics missing mix", "/v1/epmetrics?workload=EP", 400, "missing mix="},
		{"epmetrics bad mix", "/v1/epmetrics?mix=zzz", 400, "invalid mix"},
		{"frontier", "/v1/frontier?workload=EP&max_a9=4&max_k10=2", 200, `"frontier"`},
		{"frontier sweet region", "/v1/frontier?workload=EP&max_a9=4&max_k10=2&deadline=10", 200, `"recommended"`},
		{"frontier too large", "/v1/frontier?max_a9=100000&max_k10=100000", 400, "exceeds the per-request cap"},
		{"frontier bad int", "/v1/frontier?max_a9=-3", 400, "non-negative"},
		{"frontier negative count", "/v1/frontier?max_a9=-3&max_k10=2", 400, "non-negative"},
		{"frontier count overflows the space", "/v1/frontier?max_a9=4611686018427387904&max_k10=1", 400, "non-negative integer at most"},
		{"frontier negative deadline", "/v1/frontier?max_a9=4&max_k10=2&deadline=-5", 400, "must be non-negative"},
		{"healthz", "/v1/healthz", 200, `"ok"`},
		{"readyz", "/v1/readyz", 200, `"ready"`},
		{"index", "/", 200, "epserve"},
		{"unknown path", "/v2/nope", 404, "no such endpoint"},
		{"bad timeout", "/v1/percentiles?d=1&u=0.5&timeout=zzz", 400, "invalid timeout"},
		{"percentile overflows float64", "/v1/percentiles?d=1e308&u=0.5&p=95", 400, "percentiles[0].wait_seconds is +Inf"},
		{"mean wait overflows float64", "/v1/percentiles?d=1e308&u=0.99&p=99", 400, "mean_wait_seconds is +Inf"},
		{"frontier latency overflows float64", "/v1/frontier?max_a9=4&max_k10=2&u=0.9999999999999999&p=99.99999999999999&kernel=mg1&scv=1e300", 400, "frontier[0].response_seconds is +Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := get(t, ts.URL+tc.path)
			if status != tc.status {
				t.Fatalf("GET %s: status %d, want %d (body %s)", tc.path, status, tc.status, body)
			}
			if !strings.Contains(body, tc.contains) {
				t.Fatalf("GET %s: body %q does not contain %q", tc.path, body, tc.contains)
			}
		})
	}
}

// nearSaturationQueries are M/D/1 percentile queries within 1e-3 to
// 1e-11 of saturation. An extended-precision Crommelin kernel ran them
// for seconds to minutes, past any request deadline, or panicked.
var nearSaturationQueries = []string{
	"d=1&u=0.999&p=99",
	"d=1&u=0.9995&p=99",
	"d=1&u=0.9999999&p=99.9999",
	"d=1&u=0.99999999999&p=99.99999999",
}

// TestNearSaturationPercentiles: each near-saturation query answers 200
// with finite percentiles inside a 1s request deadline, and, without
// the race detector, within 10 ms.
func TestNearSaturationPercentiles(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, q := range nearSaturationQueries {
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/percentiles?timeout=1s&"+q, nil))
		elapsed := time.Since(start)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200: %s", q, rec.Code, rec.Body.String())
		}
		var resp PercentilesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		if w := resp.Percentiles[0].WaitSeconds; !(w > 0) || math.IsInf(w, 0) {
			t.Errorf("GET %s: wait %g, want finite and positive", q, w)
		}
		if !raceEnabled && elapsed > 10*time.Millisecond {
			t.Errorf("GET %s took %v, want under 10ms", q, elapsed)
		}
	}
}

// TestFrontierLargeSingleType: a space at the per-request cap whose
// one node type keeps nearly every choice on its staircase (a single
// operating point, or all of them at one frequency, where rate and p
// both grow with the node count) answers 200 inside a 1s deadline — 10s
// under the race detector, which slows the sweep about tenfold — and,
// without it, in under a second of wall time.
func TestFrontierLargeSingleType(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	timeout := "1s"
	if raceEnabled {
		timeout = "10s"
	}
	for _, q := range []string{
		"workload=EP&max_a9=131071&max_k10=0",
		"workload=EP&dvfs=1&max_a9=6553&max_k10=0",
		"workload=memcached&dvfs=1&max_a9=6553&max_k10=0&power=1000",
	} {
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/frontier?timeout="+timeout+"&"+q, nil))
		elapsed := time.Since(start)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200: %s", q, rec.Code, rec.Body.String())
		}
		var resp FrontierResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		if resp.Explored < 131000 || len(resp.Frontier) == 0 {
			t.Errorf("GET %s: explored %d with %d frontier points", q, resp.Explored, len(resp.Frontier))
		}
		if !raceEnabled && elapsed > time.Second {
			t.Errorf("GET %s took %v, want under 1s", q, elapsed)
		}
	}
}

// TestNonFiniteQueryParams: every float query parameter of
// /v1/percentiles and /v1/frontier answers NaN, Inf and -Inf with 400
// bad_request — never a 500 from the JSON encoder, and never a 200
// that silently ignores the value.
func TestNonFiniteQueryParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Each entry is a valid request with one float parameter left open.
	params := []struct{ name, query string }{
		{"percentiles u", "/v1/percentiles?d=1&u="},
		{"percentiles d", "/v1/percentiles?u=0.5&d="},
		{"percentiles p", "/v1/percentiles?d=1&u=0.5&p="},
		{"percentiles p list", "/v1/percentiles?d=1&u=0.5&p=50,"},
		{"percentiles scv", "/v1/percentiles?d=1&u=0.5&kernel=mg1&scv="},
		{"frontier power", "/v1/frontier?max_a9=2&max_k10=1&power="},
		{"frontier deadline", "/v1/frontier?max_a9=2&max_k10=1&deadline="},
		{"frontier energy", "/v1/frontier?max_a9=2&max_k10=1&energy="},
		{"frontier u", "/v1/frontier?max_a9=2&max_k10=1&u="},
		{"frontier p", "/v1/frontier?max_a9=2&max_k10=1&u=0.5&p="},
		{"frontier scv", "/v1/frontier?max_a9=2&max_k10=1&u=0.5&kernel=mg1&scv="},
	}
	for _, p := range params {
		for _, v := range []string{"NaN", "Inf", "-Inf"} {
			t.Run(p.name+"="+v, func(t *testing.T) {
				status, body := get(t, ts.URL+p.query+v)
				if status != http.StatusBadRequest || !strings.Contains(body, "bad_request") {
					t.Fatalf("GET %s%s: status %d (body %s), want 400 bad_request", p.query, v, status, body)
				}
			})
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/percentiles?d=1&u=0.5", nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d, want 405", resp.StatusCode)
	}
	allow := resp.Header.Get("Allow")
	if !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
		t.Fatalf("Allow header %q, want GET and POST", allow)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get(t, ts.URL+"/v1/percentiles?d=1&u=0.9")
	status, body := get(t, ts.URL+"/metrics")
	if status != 200 {
		t.Fatalf("/metrics status %d", status)
	}
	for _, want := range []string{
		"serve_admitted 1",
		"http_percentiles_requests 1",
		"http_percentiles_status_2xx 1",
		"# TYPE http_percentiles_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// blockingChain mounts a handler that parks until release closes behind
// the full api middleware chain, sharing srv's limiter and registry.
func blockingChain(srv *Server) (http.Handler, chan struct{}, chan struct{}) {
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	h := srv.api("block", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		select {
		case <-release:
			w.WriteHeader(http.StatusOK)
		case <-r.Context().Done():
			writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", "handler saw deadline")
		}
	})
	return h, entered, release
}

// TestOverloadSheds saturates a 1-slot/1-queue server and asserts that
// excess requests shed with 429 + Retry-After while admitted requests
// complete, and that no goroutines leak.
func TestOverloadSheds(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := telemetry.New()
	srv, err := New(Config{Telemetry: reg, MaxInflight: 1, MaxQueue: 1, DefaultTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, entered, release := blockingChain(srv)
	ts := httptest.NewServer(h)
	defer ts.Close()

	type outcome struct {
		status     int
		retryAfter string
		body       string
	}
	results := make(chan outcome, 8)
	fire := func() {
		resp, err := http.Get(ts.URL)
		if err != nil {
			results <- outcome{status: -1, body: err.Error()}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), string(body)}
	}

	go fire() // holds the slot
	<-entered
	go fire() // waits in the queue
	waitCounter(t, srv.ins.queueWaits, 1)

	const extra = 4
	for i := 0; i < extra; i++ {
		go fire() // queue full: shed
	}
	var sheds []outcome
	for i := 0; i < extra; i++ {
		sheds = append(sheds, <-results)
	}
	for _, o := range sheds {
		if o.status != http.StatusTooManyRequests {
			t.Fatalf("overflow request: status %d body %s, want 429", o.status, o.body)
		}
		if o.retryAfter != "1" {
			t.Fatalf("429 Retry-After = %q, want \"1\"", o.retryAfter)
		}
		if !strings.Contains(o.body, "overloaded") {
			t.Fatalf("429 body %q missing code \"overloaded\"", o.body)
		}
	}
	if got := srv.ins.shed.Value(); got != extra {
		t.Fatalf("serve.shed = %d, want %d", got, extra)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if o := <-results; o.status != http.StatusOK {
			t.Fatalf("admitted request: status %d body %s, want 200", o.status, o.body)
		}
	}
	if got := srv.ins.admitted.Value(); got != 2 {
		t.Fatalf("serve.admitted = %d, want 2", got)
	}
	checkGoroutines(t, before)
}

// TestDeadlineWhileQueued parks one request on the only slot and
// asserts a queued request with a short deadline gets 504.
func TestDeadlineWhileQueued(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.New(), MaxInflight: 1, MaxQueue: 4, DefaultTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, entered, release := blockingChain(srv)
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer close(release) // LIFO: unblock the parked handler before ts.Close waits on it

	go http.Get(ts.URL) //nolint:errcheck // released at test end
	<-entered

	status, body := get(t, ts.URL+"/?timeout=50ms")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d body %s, want 504", status, body)
	}
	if !strings.Contains(body, "deadline_exceeded") {
		t.Fatalf("504 body %q missing code \"deadline_exceeded\"", body)
	}
	if got := srv.ins.deadlineExceeded.Value(); got != 1 {
		t.Fatalf("serve.deadline_exceeded = %d, want 1", got)
	}
}

// TestDeadlineCancelsCompute asserts a deadline that expires during the
// percentile computation surfaces as 504, not a hang.
func TestDeadlineCancelsCompute(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTimeout: time.Minute})
	// p extremely close to 100 at high rho is the slowest search; 1ns
	// expires before the first context check.
	status, body := get(t, ts.URL+"/v1/percentiles?d=1&u=0.99&p=99.9999&timeout=1ns")
	if status != http.StatusBadRequest && status != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %s, want 504 (or 400 for sub-ms floor)", status, body)
	}
	if status == http.StatusGatewayTimeout && !strings.Contains(body, "deadline_exceeded") {
		t.Fatalf("504 body %q missing deadline_exceeded", body)
	}
}

// TestGracefulShutdown drives the real listener: readiness flips before
// the drain finishes, the in-flight request completes, and new
// connections are refused after drain.
func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.New(), MaxInflight: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, entered, release := blockingChain(srv)
	srv.mux.Handle("/test/block", h)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	waitFor(t, "server ready", func() bool { return srv.ready.Load() })
	if status, body := get(t, base+"/v1/readyz"); status != 200 {
		t.Fatalf("readyz before shutdown: %d %s", status, body)
	}

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/test/block")
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-entered

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// Readiness flips immediately, while the in-flight request still runs.
	waitFor(t, "readiness flipped", func() bool { return !srv.ready.Load() })
	select {
	case status := <-inflight:
		t.Fatalf("in-flight request finished (%d) before release; drain did not wait", status)
	default:
	}

	close(release)
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", status)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after clean shutdown, want nil", err)
	}
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("request after drain succeeded, want connection refused")
	}
}

func TestReadyzDraining(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.ready.Store(false)
	status, body := get(t, ts.URL+"/v1/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz: %d %s, want 503 draining", status, body)
	}
	if status, _ := get(t, ts.URL+"/v1/healthz"); status != 200 {
		t.Fatalf("healthz during drain: %d, want 200 (liveness is not readiness)", status)
	}
}

func TestPanicRecovery(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := srv.api("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	status, body := get(t, ts.URL)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", status)
	}
	if !strings.Contains(body, "internal") {
		t.Fatalf("500 body %q missing code \"internal\"", body)
	}
	if got := srv.ins.panics.Value(); got != 1 {
		t.Fatalf("serve.panics = %d, want 1", got)
	}
	// The server must keep serving after a panic.
	if status, _ := get(t, ts.URL); status != http.StatusInternalServerError {
		t.Fatalf("second request after panic: status %d, want another 500", status)
	}
}

// TestFrontierRequestsAreIndependent: a frontier request sweeps under
// its own deadline only. Each round sends 16 concurrent, identical
// default-space GETs (428 configurations, one admission unit each, so
// four run side by side), every other one with timeout=1ns: each live
// request answers the serial GET's bytes, each expired one 504, and
// only the expired ones count as deadline_exceeded.
func TestFrontierRequestsAreIndependent(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.New(), MaxInflight: 4, MaxQueue: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const target = "/v1/frontier?workload=EP"
	serial := send(srv, http.MethodGet, target, "")
	if serial.Code != http.StatusOK {
		t.Fatalf("serial GET: status %d: %s", serial.Code, serial.Body)
	}
	want := serial.Body.String()

	const herd = 16
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	expired := 0
	for round := 0; round < rounds; round++ {
		recs := make([]*httptest.ResponseRecorder, herd)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range recs {
			url := target
			if i%2 == 1 {
				url += "&timeout=1ns"
			}
			wg.Add(1)
			go func(i int, url string) {
				defer wg.Done()
				<-start
				recs[i] = send(srv, http.MethodGet, url, "")
			}(i, url)
		}
		close(start)
		wg.Wait()
		for i, rec := range recs {
			if i%2 == 1 {
				expired++
				if rec.Code != http.StatusGatewayTimeout {
					t.Fatalf("round %d: expired request %d answered %d, want 504: %s", round, i, rec.Code, rec.Body)
				}
				continue
			}
			if rec.Code != http.StatusOK || rec.Body.String() != want {
				t.Fatalf("round %d: live request %d answered %d, want 200 with the serial bytes: %s", round, i, rec.Code, rec.Body)
			}
		}
	}
	if got := srv.ins.deadlineExceeded.Value(); got != uint64(expired) {
		t.Fatalf("serve.deadline_exceeded = %d, want the %d expired requests", got, expired)
	}
}

// TestServeRaceHammer drives the full serve path from many goroutines;
// run under -race it is the regression test for the percentile-cache
// counter race and any handler-state races, including identical
// frontier sweeps sharing one model.Table and its space slot.
func TestServeRaceHammer(t *testing.T) {
	const workers = 16
	// A queue as deep as the worker count sheds nothing, so every
	// request must answer 200.
	_, ts := newTestServer(t, Config{MaxQueue: workers})
	paths := []string{
		"/v1/percentiles?d=1&u=0.9",
		"/v1/percentiles?d=1&u=0.9", // repeat: identical concurrent solves
		"/v1/percentiles?d=0.004&u=0.9&p=50,95,99,99.9",
		"/v1/percentiles?workload=EP&mix=32xA9,12xK10&u=0.5",
		"/v1/epmetrics?workload=EP&mix=32xA9,12xK10",
		"/v1/frontier?workload=EP&max_a9=16&max_k10=8&dvfs=1&u=0.5&p=95",
		"/v1/frontier?workload=EP&power=800",
		"/v1/readyz",
		"/metrics",
	}
	perWorker := 12
	if testing.Short() {
		perWorker = 4
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url := ts.URL + paths[(w+i)%len(paths)]
				resp, err := http.Get(url)
				if err != nil {
					errCh <- err
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("hammer: %v", err)
	}
}

// TestPercentilesJSONShape pins the response schema documented in
// docs/API.md.
func TestPercentilesJSONShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := get(t, ts.URL+"/v1/percentiles?d=2&u=0.5&p=95")
	var resp PercentilesResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Utilization != 0.5 || resp.ServiceTimeSeconds != 2 {
		t.Fatalf("echo fields wrong: %+v", resp)
	}
	if resp.ArrivalRatePerSecond != 0.25 {
		t.Fatalf("arrival rate = %g, want rho/D = 0.25", resp.ArrivalRatePerSecond)
	}
	if len(resp.Percentiles) != 1 || resp.Percentiles[0].P != 95 {
		t.Fatalf("percentiles = %+v, want one entry at p95", resp.Percentiles)
	}
	if got, want := resp.Percentiles[0].ResponseSeconds, resp.Percentiles[0].WaitSeconds+2; got != want {
		t.Fatalf("response = wait + D violated: %g != %g", got, want)
	}
}

// waitCounter polls a counter until it reaches want.
func waitCounter(t *testing.T, c *telemetry.Counter, want uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("counter to reach %d", want), func() bool { return c.Value() >= want })
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// checkGoroutines asserts the goroutine count returns near its starting
// point — queued-and-shed requests must not leave waiters behind.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		now = runtime.NumGoroutine()
		if now <= before+3 { // runtime helpers allow a little slack
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, now)
}

// TestAnalysisCacheResets: the (workload, mix) memo holds 4,096
// analyses; the 4,097th distinct pair drops the full memo and counts
// one serve.analysis_cache_resets, and a lookup that hits counts none.
func TestAnalysisCacheResets(t *testing.T) {
	reg := telemetry.New()
	srv, err := New(Config{Telemetry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	resets := reg.Counter("serve.analysis_cache_resets")
	mix := func(i int) string { return fmt.Sprintf("%dxA9,%dxK10", 1+i%64, 1+i/64) }
	for i := range analysisCacheMax + 1 {
		if _, err := srv.analysisFor("EP", mix(i)); err != nil {
			t.Fatalf("%s: %v", mix(i), err)
		}
		if want := uint64(max(0, i+1-analysisCacheMax)); resets.Value() != want {
			t.Fatalf("after %d distinct pairs: %d resets, want %d", i+1, resets.Value(), want)
		}
	}
	if _, err := srv.analysisFor("EP", mix(analysisCacheMax)); err != nil {
		t.Fatal(err)
	}
	if resets.Value() != 1 {
		t.Fatalf("a memo hit counted a reset: %d resets, want 1", resets.Value())
	}
}
