package queueing

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestMD1UtilizationIdentity(t *testing.T) {
	q, err := NewMD1FromUtilization(0.3, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Rho(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("rho = %g, want 0.3", got)
	}
}

func TestMD1RejectsUnstable(t *testing.T) {
	if _, err := NewMD1FromUtilization(1.0, 1); err == nil {
		t.Error("expected error for rho = 1")
	}
	if _, err := NewMD1FromUtilization(-0.1, 1); err == nil {
		t.Error("expected error for negative rho")
	}
	if _, err := NewMD1FromUtilization(0.5, 0); err == nil {
		t.Error("expected error for zero service time")
	}
}

func TestMeanWaitPollaczekKhinchine(t *testing.T) {
	// rho=0.5, D=1: W = 0.5/(2*0.5) = 0.5.
	q := MD1{Lambda: 0.5, D: 1}
	if got := q.MeanWait(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mean wait = %g, want 0.5", got)
	}
}

func TestWaitCDFBoundaries(t *testing.T) {
	q := MD1{Lambda: 0.7, D: 1}
	if got := q.WaitCDF(0); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("P(W<=0) = %g, want 1-rho = 0.3", got)
	}
	if got := q.WaitCDF(-1); got != 0 {
		t.Errorf("P(W<=-1) = %g, want 0", got)
	}
	if got := q.WaitCDF(200); math.Abs(got-1) > 1e-6 {
		t.Errorf("P(W<=200) = %g, want ~1", got)
	}
}

// TestWaitCDFMonotone is a property test: the CDF must be nondecreasing
// in t and continuous at multiples of D.
func TestWaitCDFMonotone(t *testing.T) {
	f := func(rhoRaw, seedRaw uint32) bool {
		rho := 0.05 + 0.9*float64(rhoRaw%1000)/1000
		q := MD1{Lambda: rho, D: 1}
		prev := -1.0
		for _, x := range stats.Linspace(0, 40, 400) {
			v := q.WaitCDF(x)
			if v < prev-1e-9 || v < 0 || v > 1 {
				t.Logf("rho=%g: CDF(%g)=%g after %g", rho, x, v, prev)
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWaitCDFContinuityAtD checks there is no jump at the service-time
// boundary where Crommelin's k increments.
func TestWaitCDFContinuityAtD(t *testing.T) {
	q := MD1{Lambda: 0.8, D: 1}
	for _, k := range []float64{1, 2, 3, 5, 10} {
		below := q.WaitCDF(k - 1e-9)
		above := q.WaitCDF(k + 1e-9)
		if math.Abs(below-above) > 1e-6 {
			t.Errorf("CDF discontinuous at t=%g: %g vs %g", k, below, above)
		}
	}
}

// simulateMD1 runs the M/D/1 Lindley recursion through SimulateGG1:
// exponential gaps at q.Lambda and the deterministic ServiceSampler(q.D, 0).
func simulateMD1(t *testing.T, q MD1, opt SimOptions) (SimResult, error) {
	t.Helper()
	service, err := ServiceSampler(q.D, 0)
	if err != nil {
		t.Fatal(err)
	}
	return SimulateGG1(func(rng *stats.RNG) float64 { return rng.ExpFloat64(q.Lambda) }, service, opt)
}

// TestCrommelinMatchesSimulation cross-validates the analytic CDF against
// the Lindley-recursion Monte-Carlo across utilizations.
func TestCrommelinMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation cross-check skipped in -short")
	}
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.9} {
		q := MD1{Lambda: rho, D: 1}
		sim, err := simulateMD1(t, q, SimOptions{Jobs: 400000, Warmup: 10000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{50, 90, 95, 99} {
			want, err := q.ResponsePercentile(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Percentile(p)
			if err != nil {
				t.Fatal(err)
			}
			if stats.RelErr(got, want) > 0.05 {
				t.Errorf("rho=%g p%g: sim %.4g vs analytic %.4g", rho, p, got, want)
			}
		}
	}
}

// TestResponsePercentileIncreasesWithUtilization checks the figure-11/12
// premise that tail latency grows with load.
func TestResponsePercentileIncreasesWithUtilization(t *testing.T) {
	prev := 0.0
	for _, rho := range []float64{0.2, 0.4, 0.6, 0.8, 0.9, 0.95} {
		q := MD1{Lambda: rho, D: 1}
		p95, err := q.ResponsePercentile(95)
		if err != nil {
			t.Fatal(err)
		}
		if p95 <= prev {
			t.Errorf("p95 at rho=%g (%g) not above previous (%g)", rho, p95, prev)
		}
		prev = p95
	}
}

// TestResponsePercentileScalesWithService checks that halving the service
// time halves every percentile (M/D/1 is scale free in D at fixed rho).
func TestResponsePercentileScalesWithService(t *testing.T) {
	q1 := MD1{Lambda: 0.6, D: 1}
	q2 := MD1{Lambda: 0.6 / 0.5, D: 0.5}
	a, err := q1.ResponsePercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q2.ResponsePercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(b, a/2) > 1e-6 {
		t.Errorf("scaled percentile %g, want %g", b, a/2)
	}
}

func TestMM1Percentile(t *testing.T) {
	q := MM1{Lambda: 0.5, D: 1}
	// Sojourn exponential with rate (1-rho)/D = 0.5; p95 = ln(20)/0.5.
	want := math.Log(20) / 0.5
	got, err := q.ResponsePercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(got, want) > 1e-12 {
		t.Errorf("MM1 p95 = %g, want %g", got, want)
	}
}

func TestMD1TailBelowMM1(t *testing.T) {
	// Deterministic service has lower variance, so its tail must sit
	// below M/M/1 at the same utilization.
	md1 := MD1{Lambda: 0.7, D: 1}
	mm1 := MM1{Lambda: 0.7, D: 1}
	a, err := md1.ResponsePercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mm1.ResponsePercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if a >= b {
		t.Errorf("M/D/1 p95 %g not below M/M/1 p95 %g", a, b)
	}
}

func TestSimulateGG1DeterministicArrivals(t *testing.T) {
	// D/D/1 with arrival gap > service never queues: response == service.
	res, err := SimulateGG1(
		func(*stats.RNG) float64 { return 2 },
		func(*stats.RNG) float64 { return 1 },
		SimOptions{Jobs: 1000, Warmup: 10, Seed: 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Responses {
		if r != 1 {
			t.Fatalf("D/D/1 response %g, want 1", r)
		}
	}
}

func TestSimulateMD1InvalidOptions(t *testing.T) {
	q := MD1{Lambda: 0.5, D: 1}
	if _, err := simulateMD1(t, q, SimOptions{Jobs: 0}); err == nil {
		t.Error("expected error for zero jobs")
	}
	if _, err := simulateMD1(t, q, SimOptions{Jobs: 10, Warmup: 10}); err == nil {
		t.Error("expected error for warmup >= jobs")
	}
}

// TestWaitPercentileAtAtomNeverNegative: the atom P(W = 0) = 1-rho is
// checked at the queue's own rho and the solve runs at rho's lattice
// point, so where p/100 sits within the lattice spacing of 1-rho the
// target can fall inside the solve's atom. The wait there is 0, never
// negative; u = 0.70000000000001 at p = 30.000000000000004 answered
// -8.66e-13 from a solve that took the atom's logarithm.
func TestWaitPercentileAtAtomNeverNegative(t *testing.T) {
	check := func(u, p float64) {
		t.Helper()
		q, err := NewMD1FromUtilization(u, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := q.WaitPercentile(p)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := q.WaitPercentilesContext(context.Background(), []float64{p})
		if err != nil {
			t.Fatal(err)
		}
		if w < 0 || ws[0] < 0 {
			t.Fatalf("u=%v p=%v: wait %g, batch %g, want >= 0", u, p, w, ws[0])
		}
		mg, err := MG1{Lambda: u, D: 1, SCV: 0.5}.WaitPercentile(p)
		if err != nil {
			t.Fatal(err)
		}
		if mg < 0 {
			t.Fatalf("u=%v p=%v: M/G/1 wait %g, want >= 0", u, p, mg)
		}
	}
	check(0.70000000000001, 30.000000000000004)
	for _, p := range []float64{1, 5, 30.000000000000004, 50, 70, 90, 95, 99} {
		atom := 1 - p/100
		for k := -50; k <= 50; k++ {
			check(atom+float64(k)*1e-14, p)
		}
	}
}
