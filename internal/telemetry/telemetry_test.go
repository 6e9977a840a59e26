package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestCounterConcurrent hammers one counter from many goroutines; the
// total must be exact (run under -race via `make race`).
func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("hammer")
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestGaugeConcurrentAdd: concurrent Add deltas must sum exactly (the
// CAS loop loses no updates); Max must keep the high watermark.
func TestGaugeConcurrentAdd(t *testing.T) {
	r := New()
	g := r.Gauge("adds")
	hw := r.Gauge("peak")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(1)
				hw.Max(float64(w*perWorker + i))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge sum = %g, want %d", got, workers*perWorker)
	}
	if got, want := hw.Value(), float64(workers*perWorker-1); got != want {
		t.Fatalf("gauge max = %g, want %g", got, want)
	}
}

// TestHistogramConcurrent: concurrent observations keep count and sum
// exact and bucket totals consistent.
func TestHistogramConcurrent(t *testing.T) {
	r := New()
	h := r.Histogram("hammer", LinearBuckets(1, 1, 8))
	const workers, perWorker = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64((w + i) % 10))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	var bucketTotal uint64
	for _, n := range h.BucketCounts() {
		bucketTotal += n
	}
	if bucketTotal != h.Count() {
		t.Fatalf("bucket totals %d != count %d", bucketTotal, h.Count())
	}
	if h.Min() != 0 || h.Max() != 9 {
		t.Fatalf("min/max = %g/%g, want 0/9", h.Min(), h.Max())
	}
}

// TestHistogramQuantileMatchesStats checks the bucket-interpolated
// quantiles against the exact sorted-sample percentiles from
// internal/stats: with bucket width w the estimate must land within w.
func TestHistogramQuantileMatchesStats(t *testing.T) {
	rng := stats.NewRNG(7)
	const n = 20000
	const width = 0.05
	h := NewHistogram(LinearBuckets(width, width, 200)) // covers (0, 10]
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := rng.ExpFloat64(1) // mean 1, tail into the overflow bucket
		if v > 12 {
			v = 12
		}
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99} {
		exact, err := stats.PercentileSorted(samples, 100*q)
		if err != nil {
			t.Fatal(err)
		}
		got := h.Quantile(q)
		if math.Abs(got-exact) > width {
			t.Errorf("q=%g: histogram %.4f vs exact %.4f (> bucket width %g)", q, got, exact, width)
		}
	}
	if got, want := h.Count(), uint64(n); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	mean := h.Mean()
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if math.Abs(mean-sum/n) > 1e-9 {
		t.Fatalf("mean = %g, want %g", mean, sum/n)
	}
}

// TestHistogramEdgeCases covers empty, single-value and clamp behavior.
func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram(nil)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(3)
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("single-value quantile = %g, want 3", got)
	}
	if h.Min() != 3 || h.Max() != 3 {
		t.Fatalf("min/max = %g/%g, want 3/3", h.Min(), h.Max())
	}
}

// TestNilSafety: every operation on nil registries, instruments, spans
// and progress reporters must be a silent no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	tr := r.Tracer()
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	g.Set(1)
	g.Add(1)
	g.Max(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value != 0")
	}
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Bounds() != nil || h.BucketCounts() != nil {
		t.Fatal("nil histogram must report zeros")
	}
	sp := tr.Start("phase")
	sp.Arg("k", "v")
	sp.End()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("nil tracer trace = %q, want empty array", buf.String())
	}
	var p *Progress
	p.Tick()
	p.Add(3)
	p.Done()
	if p.Count() != 0 {
		t.Fatal("nil progress count != 0")
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{}\n" {
		t.Fatalf("nil registry JSON = %q, want {}", buf.String())
	}
}

// TestRegistrySharing: the same name resolves to the same instrument.
func TestRegistrySharing(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter not shared by name")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("gauge not shared by name")
	}
	h := r.Histogram("a", LinearBuckets(1, 1, 3))
	if r.Histogram("a", nil) != h {
		t.Fatal("histogram not shared by name")
	}
}

// TestGlobal: SetGlobal installs and removes the process registry, and
// StartSpan, and Start on an unscoped context, route through it.
func TestGlobal(t *testing.T) {
	if Global() != nil {
		t.Fatal("global registry must start nil")
	}
	r := New()
	SetGlobal(r)
	defer SetGlobal(nil)
	if Global() != r {
		t.Fatal("Global() did not return the installed registry")
	}
	StartSpan("phase").End()
	if r.Tracer().Len() != 1 {
		t.Fatal("StartSpan did not record on the global tracer")
	}
	Start(context.Background(), "unscoped").Arg("k", 1).End()
	if r.Tracer().Len() != 2 {
		t.Fatal("Start on an unscoped context did not record on the global tracer")
	}
	var buf bytes.Buffer
	if err := r.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"unscoped"`) || !strings.Contains(buf.String(), `"args":{"k":1}`) {
		t.Fatalf("unscoped span or its args missing from the trace:\n%s", buf.String())
	}

	// Under a request scope the span ends on the request's timeline and
	// the process tracer keeps nothing, even with a registry installed.
	rc := NewRequestContext("", "frontier")
	Start(WithRequest(context.Background(), rc), "scoped").Arg("k", 2).End()
	if r.Tracer().Len() != 2 {
		t.Fatalf("a request-scoped span reached the process tracer (%d spans)", r.Tracer().Len())
	}
	if tl := rc.Timeline(); len(tl) != 1 || tl[0].Name != "scoped" {
		t.Fatalf("request timeline = %+v, want one scoped phase", tl)
	}
	SetGlobal(nil)
	if Global() != nil {
		t.Fatal("SetGlobal(nil) must disable")
	}
	StartSpan("ignored").End() // must not panic
}

// TestSnapshotJSON: the snapshot round-trips through JSON with the
// expected values and quantile fields.
func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.Counter("c1").Add(7)
	r.Gauge("g1").Set(2.5)
	h := r.Histogram("h1", LinearBuckets(1, 1, 4))
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5, 4.5} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["c1"] != 7 {
		t.Fatalf("c1 = %d, want 7", snap.Counters["c1"])
	}
	if snap.Gauges["g1"] != 2.5 {
		t.Fatalf("g1 = %g, want 2.5", snap.Gauges["g1"])
	}
	hs, ok := snap.Histograms["h1"]
	if !ok {
		t.Fatal("h1 missing from snapshot")
	}
	if hs.Count != 5 || hs.Sum != 12.5 {
		t.Fatalf("h1 count/sum = %d/%g, want 5/12.5", hs.Count, hs.Sum)
	}
	if hs.P50 <= 0 || hs.P95 < hs.P50 || hs.P99 < hs.P95 {
		t.Fatalf("quantiles not monotone: p50=%g p95=%g p99=%g", hs.P50, hs.P95, hs.P99)
	}
	if len(hs.Buckets) != len(hs.Bounds)+1 {
		t.Fatalf("bucket count %d != bounds+1 %d", len(hs.Buckets), len(hs.Bounds)+1)
	}
}

// TestProgressSequential golden-matches the deterministic count-based
// reporting: thresholds at every multiple of `every`, plus a final line
// from Done when the total is not a multiple.
func TestProgressSequential(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep", 10, 4)
	for i := 0; i < 10; i++ {
		p.Tick()
	}
	p.Done()
	p.Done() // idempotent
	want := "sweep: 4/10 configs\nsweep: 8/10 configs\nsweep: 10/10 configs\n"
	if buf.String() != want {
		t.Fatalf("progress output:\n%q\nwant:\n%q", buf.String(), want)
	}
	if p.Count() != 10 {
		t.Fatalf("count = %d, want 10", p.Count())
	}
}

// TestProgressBatched: Add crossing several thresholds at once prints
// one line, and a disabled reporter (every<=0) is nil.
func TestProgressBatched(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep", 100, 10)
	p.Add(35)
	if got, want := buf.String(), "sweep: 35/100 configs\n"; got != want {
		t.Fatalf("batched output %q, want %q", got, want)
	}
	if NewProgress(&buf, "x", 10, 0) != nil {
		t.Fatal("every=0 must disable")
	}
}

// TestProgressConcurrent: each threshold prints exactly once under
// parallel ticking.
func TestProgressConcurrent(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(b)
	})
	const workers, perWorker, every = 8, 1000, 100
	p := NewProgress(w, "par", workers*perWorker, every)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				p.Tick()
			}
		}()
	}
	wg.Wait()
	p.Done()
	mu.Lock()
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	mu.Unlock()
	if want := workers * perWorker / every; lines != want {
		t.Fatalf("printed %d lines, want %d", lines, want)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
