package queueing

import (
	"testing"

	"repro/internal/telemetry"
)

// kernel_bench_test.go covers the non-M/D/1 kernels; `make
// bench-queueing` picks these up alongside the Crommelin benchmarks
// and appends them to BENCH_queueing.json.

// benchMG1Cold runs one never-seen rho from [0.3, 0.95) per iteration
// through an M/G/1 mixture solve at SCV 0.5: the M/D/1 percentile, then
// Newton on the mixture.
func benchMG1Cold(b *testing.B, resp bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := MG1{Lambda: coldRho(i, 0.3, 0.95) / 3.5, D: 3.5, SCV: 0.5}
		var v float64
		var err error
		if resp {
			v, err = q.ResponsePercentile(99)
		} else {
			v, err = q.WaitPercentile(99)
		}
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

// BenchmarkMG1WaitPercentileCold measures the mixture wait solve.
func BenchmarkMG1WaitPercentileCold(b *testing.B) { benchMG1Cold(b, false) }

// BenchmarkMG1ResponsePercentileCold measures the mixture sojourn solve.
func BenchmarkMG1ResponsePercentileCold(b *testing.B) { benchMG1Cold(b, true) }

// BenchmarkMG1WaitPercentileClosedForm measures the SCV >= 1 branch,
// a pure closed form.
func BenchmarkMG1WaitPercentileClosedForm(b *testing.B) {
	q, err := NewMG1FromUtilization(0.85, 3.5, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := q.WaitPercentile(99)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

// BenchmarkErlangC measures the iterative Erlang-B/C recursion, the
// inner loop of every M/M/k evaluation.
func BenchmarkErlangC(b *testing.B) {
	b.Run("k=16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = ErlangC(16, 13.6)
		}
	})
	b.Run("k=256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = ErlangC(256, 217.6)
		}
	})
}

// BenchmarkMMKWaitPercentile measures the closed-form M/M/k wait
// quantile (Erlang-C plus a log).
func BenchmarkMMKWaitPercentile(b *testing.B) {
	q, err := NewMMKFromUtilization(0.85, 3.5, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := q.WaitPercentile(99)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

// BenchmarkMMKResponsePercentile measures the numeric sojourn-quantile
// solve (bracketed bisection over the two-exponential CDF).
func BenchmarkMMKResponsePercentile(b *testing.B) {
	q, err := NewMMKFromUtilization(0.85, 3.5, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := q.ResponsePercentile(99)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

// TestKernelWarmPathZeroAlloc extends the M/D/1 zero-alloc guarantee to
// the other kernels: a repeated unscoped percentile query, a mixture
// solve or a pure closed form, must not allocate. The fleet latency
// twin and the epserve hot path both lean on this.
func TestKernelWarmPathZeroAlloc(t *testing.T) {
	telemetry.SetGlobal(nil)

	mg1Mix, err := NewMG1FromUtilization(0.847213, 3.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mg1Tail, err := NewMG1FromUtilization(0.847213, 3.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	mmk, err := NewMMKFromUtilization(0.847213, 3.5, 16)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func() (float64, error)
	}{
		{"mg1 mixture wait (warm)", func() (float64, error) { return mg1Mix.WaitPercentile(99) }},
		{"mg1 mixture response (warm)", func() (float64, error) { return mg1Mix.ResponsePercentile(99) }},
		{"mg1 closed-form wait", func() (float64, error) { return mg1Tail.WaitPercentile(99) }},
		{"mg1 closed-form response", func() (float64, error) { return mg1Tail.ResponsePercentile(99) }},
		{"mmk wait", func() (float64, error) { return mmk.WaitPercentile(99) }},
	}
	for _, tc := range cases {
		if _, err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocated %.1f times per call, want 0", tc.name, allocs)
		}
	}
}
