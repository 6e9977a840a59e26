package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/telemetry"
)

// Allocation regression guards for the serving hot path. The bounds are
// measured warm values plus ~40% headroom, not aspirations: the warm
// scalar request (one percentile solve, pooled encode buffer, no
// logging) sits at 51 allocations end to end, the batch path amortizes
// its fixed cost so far that one warm item costs ~15 — the alloc-level
// counterpart of the batch throughput win — and an annotated DVFS
// frontier request on a warm table sits at 119. If a number jumps, a
// pooled buffer or pre-sized slice on the hot path has regressed. Each
// count includes the test's own httptest request and recorder.

// allocServer builds a server with deterministic allocation behavior:
// ample admission units, discard logging.
func allocServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{Telemetry: telemetry.New(), MaxInflight: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.ready.Store(true)
	return srv
}

// TestScalarPercentilesAllocs pins the warm scalar GET path end to end
// through the full middleware chain.
func TestScalarPercentilesAllocs(t *testing.T) {
	srv := allocServer(t)
	run := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/percentiles?d=1&u=0.7&p=99", nil))
		return rec.Code
	}
	if code := run(); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}
	avg := testing.AllocsPerRun(200, func() {
		if run() != http.StatusOK {
			panic("scalar request failed")
		}
	})
	// Measured 51 warm (56 while the weigher parsed the query a second
	// time); the recorder and request construction are part of the
	// run, so the handler's own share is lower still.
	if avg > 110 {
		t.Fatalf("warm scalar GET = %.1f allocs/request, want <= 110", avg)
	}
}

// TestFrontierAnnotatedAllocs pins a warm annotated GET of the paper's
// footnote-4 DVFS frontier: the sweep reuses the workload's table, its
// reduced space and that space's last walk, so what allocates is the
// request, the frontier's points, their latency annotation and the
// response. A span arg boxed for a request span that drops it, or a
// per-configuration allocation in the walk, would show here.
func TestFrontierAnnotatedAllocs(t *testing.T) {
	srv := allocServer(t)
	run := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/v1/frontier?workload=EP&max_a9=10&max_k10=10&dvfs=1&u=0.6&p=95", nil))
		return rec.Code
	}
	if code := run(); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}
	avg := testing.AllocsPerRun(100, func() {
		if run() != http.StatusOK {
			panic("frontier request failed")
		}
	})
	// Measured 119 warm (128 while the weigher parsed the query a
	// second time).
	if avg > 180 {
		t.Fatalf("warm annotated DVFS frontier GET = %.1f allocs/request, want <= 180", avg)
	}
}

// TestBatchPercentilesPerItemAllocs pins the warm per-item cost of a
// 64-point batch: the fixed request overhead (decode, admission,
// response envelope) amortizes across items, so one batched evaluation
// must cost a small fraction of a scalar request.
func TestBatchPercentilesPerItemAllocs(t *testing.T) {
	srv := allocServer(t)
	const items = 64
	us := make([]float64, items)
	for i := range us {
		us[i] = 0.30 + 0.01*float64(i)
	}
	raw, err := json.Marshal(map[string]any{
		"u":     us,
		"p":     []float64{99},
		"items": []map[string]any{{"d": 1.0}},
	})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	run := func() int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/percentiles", bytes.NewReader(raw))
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	if code := run(); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}
	avg := testing.AllocsPerRun(100, func() {
		if run() != http.StatusOK {
			panic("batch request failed")
		}
	})
	perItem := avg / items
	// Measured ~14.8 warm per item.
	if perItem > 25 {
		t.Fatalf("warm batch = %.2f allocs/item (%.0f total), want <= 25", perItem, avg)
	}
}

// BenchmarkScalarPercentiles and BenchmarkBatchPercentiles64 time the
// same warm paths the alloc guards pin, for profiling the serving hot
// path (`go test -bench BenchmarkBatch -cpuprofile ...`).
func BenchmarkScalarPercentiles(b *testing.B) {
	srv, err := New(Config{Telemetry: telemetry.New(), MaxInflight: 256})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	srv.ready.Store(true)
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/percentiles?d=1&u=0.7&p=99", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

func BenchmarkBatchPercentiles64(b *testing.B) {
	srv, err := New(Config{Telemetry: telemetry.New(), MaxInflight: 256})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	srv.ready.Store(true)
	h := srv.Handler()
	const items = 64
	us := make([]float64, items)
	for i := range us {
		us[i] = 0.30 + 0.01*float64(i)
	}
	raw, err := json.Marshal(map[string]any{
		"u":     us,
		"p":     []float64{50, 95, 99},
		"items": []map[string]any{{"d": 1.0}},
	})
	if err != nil {
		b.Fatalf("marshal: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/percentiles", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
}
