package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// fuzzRoutes are the model routes FuzzServeGET drives; the fuzzed route
// byte selects one.
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
		// A count whose configuration space overflows.
		"/v1/frontier?max_a9=4611686018427387904&max_k10=1",
	} {
		route, query, _ := strings.Cut(path, "?")
		for i, r := range fuzzRoutes {
			if r == route {
				f.Add(uint8(i), query)
			}
		}
	}
	srv, err := New(Config{Telemetry: telemetry.New(), Workers: 1})
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
