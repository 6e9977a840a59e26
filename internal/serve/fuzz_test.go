package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/telemetry"
)

// fuzzRoutes are the model routes FuzzServeGET and FuzzServePOST drive;
// the fuzzed route byte selects one.
var fuzzRoutes = []string{"/v1/percentiles", "/v1/epmetrics", "/v1/frontier"}

// FuzzServeGET drives arbitrary (route, raw query) pairs through the
// full handler chain — deadline, admission, the route's query decoder,
// resolver and evaluator — and asserts that no input draws a 5xx: a
// hostile query must come back as a 4xx error envelope (or a 200), and
// the process must survive it.
func FuzzServeGET(f *testing.F) {
	for _, path := range []string{
		// TestEndpoints
		"/v1/percentiles?d=1&u=0.9",
		"/v1/percentiles?workload=EP&mix=32xA9,12xK10&u=0.5&p=95",
		"/v1/percentiles?d=0.5&u=0",
		"/v1/percentiles?d=1",
		"/v1/percentiles?d=1&u=1.5",
		"/v1/percentiles?d=-2&u=0.9",
		"/v1/percentiles?d=1&mix=32xA9&u=0.5",
		"/v1/percentiles?d=1&u=0.5&p=abc",
		"/v1/percentiles?workload=nope&mix=32xA9&u=0.5",
		"/v1/percentiles?d=1&u=0.7&p=95&kernel=mg1&scv=0.5",
		"/v1/percentiles?d=1&u=0.7&p=95&kernel=mmk&servers=4",
		"/v1/epmetrics?workload=EP&mix=32xA9,12xK10",
		"/v1/epmetrics?workload=EP&mix=16xA9,2xK10&ref=32xA9,12xK10",
		"/v1/epmetrics?workload=EP",
		"/v1/epmetrics?mix=zzz",
		"/v1/frontier?workload=EP&max_a9=4&max_k10=2",
		"/v1/frontier?workload=EP&max_a9=4&max_k10=2&deadline=10",
		"/v1/frontier?max_a9=100000&max_k10=100000",
		"/v1/frontier?max_a9=-3",
		"/v1/frontier?max_a9=4&max_k10=2&u=0.6&p=95&kernel=mg1&scv=4",
		"/v1/percentiles?d=1&u=0.5&timeout=zzz",
		"/v1/percentiles?d=1e308&u=0.5&p=95",
		"/v1/percentiles?d=1e308&u=0.99&p=99",
		"/v1/frontier?max_a9=4&max_k10=2&u=0.9999999999999999&p=99.99999999999999&kernel=mg1&scv=1e300",
		// TestNonFiniteQueryParams
		"/v1/percentiles?d=1&u=NaN",
		"/v1/percentiles?u=0.5&d=Inf",
		"/v1/percentiles?d=1&u=0.5&p=-Inf",
		"/v1/percentiles?d=1&u=0.5&p=50,NaN",
		"/v1/percentiles?d=1&u=0.5&kernel=mg1&scv=Inf",
		"/v1/frontier?max_a9=2&max_k10=1&power=NaN",
		"/v1/frontier?max_a9=2&max_k10=1&deadline=Inf",
		"/v1/frontier?max_a9=2&max_k10=1&energy=-Inf",
		"/v1/frontier?max_a9=2&max_k10=1&u=NaN",
		"/v1/frontier?max_a9=2&max_k10=1&u=0.5&p=Inf",
		"/v1/frontier?max_a9=2&max_k10=1&u=0.5&kernel=mg1&scv=NaN",
		// Spaces at the per-request cap whose one type keeps nearly
		// every choice on its staircase (TestFrontierLargeSingleType).
		"/v1/frontier?workload=EP&max_a9=131071&max_k10=0",
		"/v1/frontier?workload=EP&dvfs=1&max_a9=6553&max_k10=0",
		// A count whose configuration space overflows.
		"/v1/frontier?max_a9=4611686018427387904&max_k10=1",
		// TestNearSaturationPercentiles
		"/v1/percentiles?d=1&u=0.999&p=99",
		"/v1/percentiles?d=1&u=0.9995&p=99",
		"/v1/percentiles?d=1&u=0.9999999&p=99.9999",
		"/v1/percentiles?d=1&u=0.99999999999&p=99.99999999",
		// TestWaitPercentileAtAtomNeverNegative: the target sits inside
		// the atom at rho's lattice point, but not at rho.
		"/v1/percentiles?d=1&u=0.70000000000001&p=30.000000000000004",
	} {
		route, query, _ := strings.Cut(path, "?")
		for i, r := range fuzzRoutes {
			if r == route {
				f.Add(uint8(i), query)
			}
		}
	}
	srv, err := New(Config{Telemetry: telemetry.New()})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, route uint8, query string) {
		req := httptest.NewRequest(http.MethodGet, fuzzRoutes[int(route)%len(fuzzRoutes)], nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("GET %s?%s: status %d: %s", req.URL.Path, query, rec.Code, rec.Body.String())
		}
	})
}

// FuzzServePOST is FuzzServeGET's twin for batch bodies: arbitrary
// (route, raw body) pairs go through the full handler chain of the
// three batch routes — deadline, weighted admission, the batch decoder,
// each item's resolver and evaluator — and no body may draw a 5xx or a
// panic: a hostile body comes back as a 4xx error envelope or a 200
// with per-item errors.
func FuzzServePOST(f *testing.F) {
	for _, seed := range []struct {
		route int
		body  string
	}{
		// TestGetIsBatchOfOne
		{0, `{"items":[{"d":1,"u":[0.9]}]}`},
		{0, `{"p":[95],"items":[{"workload":"EP","mix":"32xA9,12xK10","u":[0.5]}]}`},
		{0, `{"items":[{"d":0.5,"u":[0]}]}`},
		{0, `{"items":[{"d":1,"u":[1.5]}]}`},
		{0, `{"items":[{"d":-2,"u":[0.9]}]}`},
		{0, `{"items":[{"d":1,"mix":"32xA9","u":[0.5]}]}`},
		{0, `{"items":[{"workload":"nope","mix":"32xA9","u":[0.5]}]}`},
		{0, `{"p":[95],"items":[{"d":1e308,"u":[0.5]}]}`},
		{0, `{"p":[99],"items":[{"d":1e308,"u":[0.99]}]}`},
		{0, `{"p":[95],"kernel":"mg1","scv":1,"items":[{"d":1,"u":[0.7]}]}`},
		{0, `{"p":[95],"items":[{"d":1,"u":[0.7],"kernel":"mmk","servers":4}]}`},
		{0, `{"kernel":"zzz","items":[{"d":1,"u":[0.7]}]}`},
		{0, `{"items":[{"d":1,"u":[0.7],"kernel":"mg1","scv":1,"servers":3}]}`},
		{0, `{"kernel":"mg1","scv":-1,"items":[{"d":1,"u":[0.7]}]}`},
		{1, `{"items":[{"workload":"EP","mix":"32xA9,12xK10"}]}`},
		{1, `{"items":[{"workload":"EP","mix":"16xA9,2xK10","ref":"32xA9,12xK10"}]}`},
		{1, `{"items":[{"workload":"EP","mix":""}]}`},
		{1, `{"items":[{"mix":"zzz"}]}`},
		{2, `{"items":[{"workload":"EP","max_a9":4,"max_k10":2}]}`},
		{2, `{"items":[{"workload":"EP","max_a9":4,"max_k10":2,"deadline_seconds":10}]}`},
		{2, `{"items":[{"max_a9":100000,"max_k10":100000}]}`},
		{2, `{"items":[{"max_a9":-3}]}`},
		{2, `{"items":[{"workload":"EP","max_a9":4,"max_k10":2,"u":0.6,"p":95,"kernel":"mg1","scv":4}]}`},
		{2, `{"items":[{"max_a9":4,"max_k10":2,"u":0.9999999999999999,"p":99.99999999999999,"kernel":"mg1","scv":1e300}]}`},
		{2, `{"items":[{"max_a9":4611686018427387904,"max_k10":1}]}`},
		// Peak-power budgets, which reach the sweep's structured budget.
		{2, `{"items":[{"workload":"EP","max_a9":10,"max_k10":10,"dvfs":true,"power_watts":500}]}`},
		{2, `{"items":[{"workload":"x264","max_a9":32,"max_k10":12,"power_watts":1000,"deadline_seconds":5}]}`},
		{2, `{"items":[{"workload":"memcached","max_a9":6,"max_k10":3,"dvfs":true,"power_watts":300,"u":0.6},{"max_a9":2,"max_k10":1,"power_watts":1e308}]}`},
		{2, `{"items":[{"max_a9":4,"max_k10":2,"power_watts":-1},{"max_a9":4,"max_k10":2,"power_watts":5e-324}]}`},
		// Malformed bodies.
		{0, `{not json`},
		{1, `{"items":[]}`},
		{2, `{"items":null}`},
		{0, `{"u":[0.5,0.9],"items":[{"d":1}],"extra":true}`},
		{1, `[]`},
		{2, ``},
	} {
		f.Add(uint8(seed.route), seed.body)
	}
	srv, err := New(Config{Telemetry: telemetry.New()})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body string) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body.String())
		}
	})
}

// FuzzServeReplay drives arbitrary /v1/replay bodies through the full
// handler chain under a 50 ms request deadline, which bounds every run.
// No body may draw a panic or a 5xx other than that deadline's own 504,
// and every 200 is a well-formed NDJSON stream: each line decodes to
// one frame, and the last line is the one summary or error frame, with
// no frame after it.
func FuzzServeReplay(f *testing.F) {
	for _, tc := range replayValidationCases {
		f.Add(tc.body)
	}
	for _, body := range []string{
		smallShapeBody,
		`{"budget":true,"summary_only":true,"trace":{"points":[{"t":0,"load":0.2},{"t":600,"load":0.5},{"t":1200,"load":0.3}]}}`,
		`{"mixes":["32xA9,12xK10","16xA9"],"percentiles":[50,99],"trace":{"points":[{"t":0,"load":0},{"t":1,"load":1},{"t":2,"load":0.5}]}}`,
		`{"mixes":["32xA9","8xK10"],"shape":{"kind":"ramp","from":0.1,"to":0.9,"step_seconds":60,"steps":16}}`,
		`{"budget":true,"adaptive":true,"hysteresis":0.1,"switch_energy_joules":50,"shape":{"kind":"diurnal","mean":0.4,"amplitude":0.3,"step_seconds":300,"steps":288}}`,
		`{"workload":"x264","mixes":["25xA9,5xK10"],"shape":{"kind":"flashcrowd","base":0.2,"peak":0.95,"start_seconds":120,"half_life_seconds":60,"step_seconds":30,"steps":40}}`,
		`{"mixes":["32xA9,12xK10","4xK10"],"adaptive":true,"slo_seconds":0.05,"slo_percentile":99,"shape":{"kind":"steps","levels":[0.1,0.8,0.4],"dwell_seconds":90,"step_seconds":30,"steps":30}}`,
		// Runs longer than the deadline: a stream that ends in an error
		// frame, and a summary-only run that answers 504 before any frame.
		`{"budget":true,"adaptive":true,"shape":{"kind":"ramp","from":0.1,"to":0.9,"step_seconds":1,"steps":65536}}`,
		`{"mixes":["32xA9"],"summary_only":true,"shape":{"kind":"ramp","from":0.1,"to":0.9,"step_seconds":1,"steps":65536}}`,
	} {
		f.Add(body)
	}
	srv, err := New(Config{Telemetry: telemetry.New()})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/replay?timeout=50ms", strings.NewReader(body)))
		if n := srv.ins.panics.Value(); n != 0 {
			t.Fatalf("POST /v1/replay %q: serve.panics = %d", body, n)
		}
		if rec.Code >= 500 && !(rec.Code == http.StatusGatewayTimeout && strings.Contains(rec.Body.String(), `"deadline_exceeded"`)) {
			t.Fatalf("POST /v1/replay %q: status %d: %s", body, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		for i, line := range lines {
			var frame struct {
				Step    *replay.Step    `json:"step"`
				Summary *replay.Summary `json:"summary"`
				Error   *errorBody      `json:"error"`
			}
			if err := json.Unmarshal([]byte(line), &frame); err != nil {
				t.Fatalf("POST /v1/replay %q: line %d does not decode: %v: %s", body, i, err, line)
			}
			// A line is a step frame before the last line and a summary
			// or error frame on it, never two frames at once.
			ends := 0
			if frame.Summary != nil {
				ends++
			}
			if frame.Error != nil {
				ends++
			}
			last := i == len(lines)-1
			if last && (ends != 1 || frame.Step != nil) || !last && (ends != 0 || frame.Step == nil) {
				t.Fatalf("POST /v1/replay %q: line %d of %d is out of place: %s", body, i, len(lines), line)
			}
		}
	})
}
