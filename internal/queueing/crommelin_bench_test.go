package queueing

import (
	"math"
	"testing"
)

// Old-vs-new benchmarks for the distribution kernel. `make bench-queueing`
// runs these and records the headline numbers (and the derived speedups)
// in BENCH_queueing.json so later PRs inherit a perf trajectory.

// benchSink defeats dead-code elimination.
var benchSink float64

// BenchmarkWaitCDF: one CDF evaluation at a tail point representative
// of a p95 search probe: the root expansion, solving its roots per call.
func BenchmarkWaitCDF(b *testing.B) {
	q := MD1{Lambda: 0.9, D: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = q.WaitCDF(12.3)
	}
}

// BenchmarkWaitCDFReference: the same evaluation on the original
// term-by-term implementation.
func BenchmarkWaitCDFReference(b *testing.B) {
	q := MD1{Lambda: 0.9, D: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = q.waitCDFReference(12.3)
	}
}

// BenchmarkWaitCDFFloat64Path: a point inside the float64 body, one
// recurrence pass over Crommelin's terms.
func BenchmarkWaitCDFFloat64Path(b *testing.B) {
	q := MD1{Lambda: 0.9, D: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = q.WaitCDF(2.5)
	}
}

// coldRho yields a distinct utilization per iteration (golden-ratio
// stride over [lo, hi)) so every query misses the percentile cache.
func coldRho(i int, lo, hi float64) float64 {
	const phi = 0.6180339887498949
	f := float64(i) * phi
	return lo + (hi-lo)*(f-math.Floor(f))
}

// benchColdP95 runs one never-seen rho from [lo, hi) per iteration
// through the full cold path: cache miss plus solve.
func benchColdP95(b *testing.B, lo, hi float64) {
	resetPercentileCache()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := MD1{Lambda: coldRho(i, lo, hi), D: 1}
		v, err := q.ResponsePercentile(95)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

// BenchmarkResponsePercentileCold: cold p95 solves at rho in
// [0.85, 0.95), all in the tail (t/D from 8 to 30).
func BenchmarkResponsePercentileCold(b *testing.B) { benchColdP95(b, 0.85, 0.95) }

// BenchmarkResponsePercentileColdBody: cold p95 solves at rho in
// [0.1, 0.7), all in the body: the closed-form first segment below
// rho ~ 0.29, segment Newton above.
func BenchmarkResponsePercentileColdBody(b *testing.B) { benchColdP95(b, 0.1, 0.7) }

// BenchmarkResponsePercentileWarm: repeated same-rho queries — the
// cache-hit path every sweep consumer rides once a utilization has been
// seen by any configuration.
func BenchmarkResponsePercentileWarm(b *testing.B) {
	resetPercentileCache()
	q := MD1{Lambda: 0.9, D: 1}
	if _, err := q.ResponsePercentile(95); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := q.ResponsePercentile(95)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

// BenchmarkResponsePercentileReference: the reference oracle —
// bisection over the term-by-term big.Float CDF, no caching — on the
// same cold query stream as BenchmarkResponsePercentileCold.
func BenchmarkResponsePercentileReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := MD1{Lambda: coldRho(i, 0.85, 0.95), D: 1}
		w, err := q.waitPercentileReference(95)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = w + q.D
	}
}

// BenchmarkResponsePercentilesBatch: five percentiles in one batched
// call, cold cache; the cost is per batch.
func BenchmarkResponsePercentilesBatch(b *testing.B) {
	resetPercentileCache()
	ps := []float64{50, 90, 95, 99, 99.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := MD1{Lambda: coldRho(i, 0.85, 0.95), D: 1}
		vs, err := q.ResponsePercentiles(ps)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = vs[len(vs)-1]
	}
}
