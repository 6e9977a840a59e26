package queueing_test

import (
	"context"
	"fmt"

	"repro/internal/queueing"
)

// The percentile batch API answers a whole list of percentiles of one
// queue in input order, each by the same solve as WaitPercentile, and
// stops between solves once its context is done.
func ExampleMD1_WaitPercentilesContext() {
	q, err := queueing.NewMD1FromUtilization(0.9, 1)
	if err != nil {
		panic(err)
	}
	ws, err := q.WaitPercentilesContext(context.Background(), []float64{50, 95, 99})
	if err != nil {
		panic(err)
	}
	for i, p := range []float64{50, 95, 99} {
		fmt.Printf("p%.0f wait = %.3f s\n", p, ws[i])
	}
	// Output:
	// p50 wait = 3.013 s
	// p95 wait = 14.129 s
	// p99 wait = 21.898 s
}

// W/D depends only on the utilization rho, so the percentile is solved
// on the normalized queue: this 4-millisecond-job query at the same rho
// as the 1-second-job query above is that solve scaled by D.
func ExampleMD1_WaitPercentile() {
	fast, err := queueing.NewMD1FromUtilization(0.9, 0.004)
	if err != nil {
		panic(err)
	}
	w, err := fast.WaitPercentile(95)
	if err != nil {
		panic(err)
	}
	fmt.Printf("4ms jobs: p95 wait = %.4f s\n", w)
	// Output:
	// 4ms jobs: p95 wait = 0.0565 s
}

// With deterministic service each sojourn-time percentile is the
// waiting-time percentile plus the service time.
func ExampleMD1_ResponsePercentilesContext() {
	q, err := queueing.NewMD1FromUtilization(0.9, 1)
	if err != nil {
		panic(err)
	}
	rs, err := q.ResponsePercentilesContext(context.Background(), []float64{50, 99})
	if err != nil {
		panic(err)
	}
	fmt.Printf("p50 resp = %.3f s, p99 resp = %.3f s\n", rs[0], rs[1])
	// Output:
	// p50 resp = 4.013 s, p99 resp = 22.898 s
}

// BatchMD1 models the paper's batched job submissions; with batches of
// four the mean per-job response grows well past the plain M/D/1 value
// (5.5 s at the same utilization).
func ExampleNewBatchMD1FromUtilization() {
	b, err := queueing.NewBatchMD1FromUtilization(0.9, 4, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("batch of 4: mean response = %.1f s\n", b.MeanResponse())
	// Output:
	// batch of 4: mean response = 20.5 s
}
