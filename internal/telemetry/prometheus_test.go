package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("alpha.total").Add(3)
	r.Gauge("beta.depth").Set(2.5)
	h := r.Histogram("gamma.seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE alpha_total counter\nalpha_total 3\n",
		"# TYPE beta_depth gauge\nbeta_depth 2.5\n",
		"# TYPE gamma_seconds histogram",
		`gamma_seconds_bucket{le="1"} 1`,
		`gamma_seconds_bucket{le="10"} 2`,
		`gamma_seconds_bucket{le="+Inf"} 3`,
		"gamma_seconds_sum 55.5",
		"gamma_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must be sorted by name: alpha before beta before gamma.
	if a, g := strings.Index(out, "alpha_total"), strings.Index(out, "gamma_seconds"); a > g {
		t.Error("families not sorted by name")
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
}

func TestPrometheusHandler(t *testing.T) {
	r := New()
	r.Counter("x.y").Inc()
	rec := httptest.NewRecorder()
	r.PrometheusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_y 1") {
		t.Fatalf("body missing x_y 1:\n%s", rec.Body.String())
	}
}
