package loadgen_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/telemetry"
)

func TestRunAgainstServe(t *testing.T) {
	srv, err := serve.New(serve.Config{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     ts.URL,
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if res.TransportErrors != 0 {
		t.Fatalf("%d transport errors", res.TransportErrors)
	}
	if n := res.Count5xx(); n != 0 {
		t.Fatalf("%d 5xx responses: %v", n, res.Status)
	}
	if res.Status[200] == 0 {
		t.Fatalf("no 200s: %v", res.Status)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
	if res.Latency(99) <= 0 || res.Latency(50) > res.Latency(99) {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", res.Latency(50), res.Latency(99))
	}
	out := res.String()
	for _, want := range []string{"requests", "status 200", "latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary %q missing %q", out, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := loadgen.Run(context.Background(), loadgen.Config{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
}

// TestOpenLoop: a modest fixed-rate run against a healthy server
// achieves (approximately) the offered rate, reports it, and carries
// batch POST targets whose per-item errors surface separately.
func TestOpenLoop(t *testing.T) {
	srv, err := serve.New(serve.Config{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One item is invalid (u out of range) -> one batch item error per
	// batch response.
	batchBody := []byte(`{"p":[99],"items":[{"d":1,"u":[0.5]},{"d":1,"u":[1.5]}]}`)
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     ts.URL,
		Targets:     []loadgen.Target{{Path: "/v1/percentiles", Body: batchBody}},
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		Rate:        100,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Offered != 100 {
		t.Fatalf("Offered = %g, want 100", res.Offered)
	}
	if res.Requests < 40 || res.Requests > 55 {
		t.Fatalf("open loop issued %d requests at 100/s over 0.5s, want ~50", res.Requests)
	}
	if res.Dropped != 0 || res.TransportErrors != 0 {
		t.Fatalf("dropped=%d transport=%d, want 0/0", res.Dropped, res.TransportErrors)
	}
	if res.Status[200] != res.Requests {
		t.Fatalf("status map %v, want all 200", res.Status)
	}
	if res.BatchItemErrors != res.Requests {
		t.Fatalf("BatchItemErrors = %d, want %d (one per batch)", res.BatchItemErrors, res.Requests)
	}
	if res.Non2xx != 0 {
		t.Fatalf("Non2xx = %d, want 0", res.Non2xx)
	}
	out := res.String()
	for _, want := range []string{"offered 100 req/s", "achieved", "batch item errors"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary %q missing %q", out, want)
		}
	}
}

// TestOpenLoopNon2xx: application-level rejections (400s) are counted
// as non-2xx, not transport errors.
func TestOpenLoopNon2xx(t *testing.T) {
	srv, err := serve.New(serve.Config{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     ts.URL,
		Paths:       []string{"/v1/percentiles?d=1&u=1.5"}, // always 400
		Concurrency: 2,
		Duration:    200 * time.Millisecond,
		Rate:        50,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Non2xx != res.Requests || res.Requests == 0 {
		t.Fatalf("Non2xx = %d of %d requests, want all", res.Non2xx, res.Requests)
	}
	if res.TransportErrors != 0 {
		t.Fatalf("transport errors %d, want 0", res.TransportErrors)
	}
}

// TestClosedLoopDrainsInFlight: the closed loop stops issuing at
// Duration but lets the requests then in flight finish within
// DrainGrace, so a handler slower than the whole run still completes
// every request it was sent and never sees one cancelled.
func TestClosedLoopDrainsInFlight(t *testing.T) {
	var served, cancelled atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(150 * time.Millisecond):
			served.Add(1)
		case <-r.Context().Done():
			cancelled.Add(1)
		}
	}))
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     ts.URL,
		Concurrency: 2,
		Duration:    50 * time.Millisecond,
		DrainGrace:  5 * time.Second,
	})
	ts.Close() // waits for every handler to return
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := cancelled.Load(); n != 0 {
		t.Fatalf("%d requests cancelled in flight", n)
	}
	if res.Requests != 2 || res.Status[200] != 2 || served.Load() != 2 {
		t.Fatalf("requests %d, statuses %v, served %d; want each worker's one request answered 200",
			res.Requests, res.Status, served.Load())
	}
}
