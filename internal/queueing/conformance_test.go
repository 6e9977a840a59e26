package queueing

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The shared kernel conformance suite: every registered kernel
// parameterization (ConformanceSpecs) is pinned the same way —
// percentiles against the slow reference implementations, CDF/percentile
// inversion, batch-equals-scalar, stability rejection, DES simulation,
// and the cross-kernel limits. A new kernel joins by appearing in
// ConformanceSpecs and growing reference counterparts.
//
// Documented tolerances:
//
//   - conformanceRefTol (1e-9, relative): fast kernel vs slow reference.
//     The references share only the model definition — term-by-term
//     extended-precision Crommelin sums, big.Float Erlang-B ratios,
//     blind bisection instead of bracketed regula falsi.
//   - conformanceDESTolExact (6%): DES vs kernels that are exact for
//     their model (M/D/1, M/G/1 at SCV ∈ {0, 1}, M/M/k) at the suite's
//     fixed seed and 500k-job runs; the slack is autocorrelation-
//     inflated Monte-Carlo noise on p99 at rho = 0.8. Means are exact
//     for every kernel (Pollaczek-Khinchine), so they are always held
//     to this budget.
//   - conformanceDESTolApprox (25%): DES vs the two-moment M/G/1
//     interpolation away from its exact endpoints (SCV ∈ {0.5, 4}).
//     The interpolation matches the mean exactly but the distribution
//     shape only approximately, and only the tail is in scope (the
//     SCV > 1 exponential tail is a heavy-traffic approximation), so
//     approximate kernels are pinned at p ∈ {90, 95, 99} rather than
//     the median.
const (
	conformanceRefTol       = 1e-9
	conformanceDESTolExact  = 0.06
	conformanceDESTolApprox = 0.25
)

var (
	conformanceRhos = []float64{0.3, 0.6, 0.85}
	conformanceDs   = []float64{0.01, 1, 7.3}
	conformancePs   = []float64{50, 95, 99}
)

func buildKernel(t testing.TB, spec Spec, rho, d float64) Kernel {
	t.Helper()
	k, err := spec.Build(rho, d)
	if err != nil {
		t.Fatalf("%v.Build(%g, %g): %v", spec, rho, d, err)
	}
	return k
}

// refWaitPercentile dispatches to the slow reference of the kernel's
// concrete type.
func refWaitPercentile(t testing.TB, k Kernel, p float64) float64 {
	t.Helper()
	var (
		w   float64
		err error
	)
	switch q := k.(type) {
	case MD1:
		w, err = q.waitPercentileReference(p)
	case MG1:
		w, err = q.waitPercentileReference(p)
	case MMK:
		w, err = q.waitPercentileReference(p)
	default:
		t.Fatalf("no reference for kernel %T", k)
	}
	if err != nil {
		t.Fatalf("reference wait percentile: %v", err)
	}
	return w
}

func refResponsePercentile(t testing.TB, k Kernel, p float64) float64 {
	t.Helper()
	var (
		r   float64
		err error
	)
	switch q := k.(type) {
	case MD1:
		// Deterministic service: the sojourn is the wait shifted by D.
		r, err = q.waitPercentileReference(p)
		r += q.D
	case MG1:
		r, err = q.responsePercentileReference(p)
	case MMK:
		r, err = q.responsePercentileReference(p)
	default:
		t.Fatalf("no reference for kernel %T", k)
	}
	if err != nil {
		t.Fatalf("reference response percentile: %v", err)
	}
	return r
}

// conformanceClose compares within conformanceRefTol relative, with an
// absolute floor for the atom-at-zero cells.
func conformanceClose(got, want float64) bool {
	if math.Abs(got-want) <= 1e-12 {
		return true
	}
	return stats.RelErr(got, want) <= conformanceRefTol
}

// TestKernelConformanceReferenceDifferential pins every kernel's wait
// and response percentiles to the slow references across the shared
// (rho, D, p) grid.
func TestKernelConformanceReferenceDifferential(t *testing.T) {
	for _, spec := range ConformanceSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			for _, rho := range conformanceRhos {
				for _, d := range conformanceDs {
					k := buildKernel(t, spec, rho, d)
					for _, p := range conformancePs {
						w, err := k.WaitPercentile(p)
						if err != nil {
							t.Fatalf("WaitPercentile(%g): %v", p, err)
						}
						if want := refWaitPercentile(t, k, p); !conformanceClose(w, want) {
							t.Errorf("rho=%g d=%g p=%g: wait %.15g, reference %.15g", rho, d, p, w, want)
						}
						r, err := k.ResponsePercentile(p)
						if err != nil {
							t.Fatalf("ResponsePercentile(%g): %v", p, err)
						}
						if want := refResponsePercentile(t, k, p); !conformanceClose(r, want) {
							t.Errorf("rho=%g d=%g p=%g: response %.15g, reference %.15g", rho, d, p, r, want)
						}
					}
				}
			}
		})
	}
}

// checkInverts asserts the percentile/CDF inversion contract two-sided,
// which stays valid at atoms (W = 0 with mass 1-rho; the M/D/1 sojourn
// jump at t = D; the mixture's inherited jump): just below the
// percentile the CDF must not exceed the target, just above it must
// reach it.
func checkInverts(t *testing.T, cdf func(float64) float64, name string, rho, p, q float64) {
	t.Helper()
	target := p / 100
	lo := q*(1-1e-9) - 1e-12
	hi := q*(1+1e-9) + 1e-12
	if got := cdf(lo); got > target+1e-6 {
		t.Errorf("rho=%g p=%g: %s just below Q(p)=%.12g is %.12g > target", rho, p, name, q, got)
	}
	if got := cdf(hi); got < target-1e-6 {
		t.Errorf("rho=%g p=%g: %s just above Q(p)=%.12g is %.12g < target", rho, p, name, q, got)
	}
}

// TestKernelConformanceCDFInversion checks that percentiles invert
// their CDFs: F(Q(p)) = p/100 away from the atom at zero, and the atom
// itself carries at least the target mass.
func TestKernelConformanceCDFInversion(t *testing.T) {
	for _, spec := range ConformanceSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			for _, rho := range conformanceRhos {
				k := buildKernel(t, spec, rho, 1.7)
				for _, p := range []float64{10, 50, 90, 99, 99.9} {
					w, err := k.WaitPercentile(p)
					if err != nil {
						t.Fatalf("WaitPercentile(%g): %v", p, err)
					}
					checkInverts(t, k.WaitCDF, "WaitCDF", rho, p, w)
					r, err := k.ResponsePercentile(p)
					if err != nil {
						t.Fatalf("ResponsePercentile(%g): %v", p, err)
					}
					checkInverts(t, k.ResponseCDF, "ResponseCDF", rho, p, r)
					if r < w {
						t.Errorf("rho=%g p=%g: response %.12g below wait %.12g", rho, p, r, w)
					}
				}
			}
		})
	}
}

// TestKernelConformanceBatchMatchesScalar checks the batch APIs return
// exactly the per-entry results, and that cancellation is honored.
func TestKernelConformanceBatchMatchesScalar(t *testing.T) {
	ps := []float64{99, 50, 95, 0, 90}
	for _, spec := range ConformanceSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			k := buildKernel(t, spec, 0.7, 2.5)
			ws, err := k.WaitPercentilesContext(context.Background(), ps)
			if err != nil {
				t.Fatalf("WaitPercentilesContext: %v", err)
			}
			rs, err := k.ResponsePercentilesContext(context.Background(), ps)
			if err != nil {
				t.Fatalf("ResponsePercentilesContext: %v", err)
			}
			for i, p := range ps {
				w, err := k.WaitPercentile(p)
				if err != nil {
					t.Fatalf("WaitPercentile(%g): %v", p, err)
				}
				if ws[i] != w {
					t.Errorf("p=%g: batch wait %.17g != scalar %.17g", p, ws[i], w)
				}
				r, err := k.ResponsePercentile(p)
				if err != nil {
					t.Fatalf("ResponsePercentile(%g): %v", p, err)
				}
				if rs[i] != r {
					t.Errorf("p=%g: batch response %.17g != scalar %.17g", p, rs[i], r)
				}
			}
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := k.WaitPercentilesContext(canceled, ps); err == nil {
				t.Error("canceled wait batch succeeded")
			}
			if _, err := k.ResponsePercentilesContext(canceled, ps); err == nil {
				t.Error("canceled response batch succeeded")
			}
		})
	}
}

// TestKernelConformanceSpans: under an installed registry a scalar
// solve counts its search but records no span, while a batch is one
// queueing.percentiles span: on an unscoped context the process
// tracer's, under a request scope a phase on the request's timeline
// and nothing on the tracer.
func TestKernelConformanceSpans(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	searches := reg.Counter("queueing.percentile_searches")
	for _, spec := range ConformanceSpecs() {
		k := buildKernel(t, spec, 0.7, 2.5)
		spans, before := reg.Tracer().Len(), searches.Value()
		for _, solve := range []func(float64) (float64, error){k.WaitPercentile, k.ResponsePercentile} {
			if _, err := solve(99); err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
		}
		if n := reg.Tracer().Len() - spans; n != 0 {
			t.Errorf("%v: two scalar solves recorded %d spans, want 0", spec, n)
		}
		if searches.Value() == before {
			t.Errorf("%v: scalar solves counted no percentile search", spec)
		}
		if _, err := k.ResponsePercentilesContext(context.Background(), []float64{95, 99}); err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if n := reg.Tracer().Len() - spans; n != 1 {
			t.Errorf("%v: an unscoped batch recorded %d spans, want 1", spec, n)
		}
		rc := telemetry.NewRequestContext("", "percentiles")
		if _, err := k.WaitPercentilesContext(telemetry.WithRequest(context.Background(), rc), []float64{95, 99}); err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if n := reg.Tracer().Len() - spans; n != 1 {
			t.Errorf("%v: a request-scoped batch reached the process tracer (%d spans)", spec, n-1)
		}
		if tl := rc.Timeline(); len(tl) != 1 || tl[0].Name != "queueing.percentiles" {
			t.Errorf("%v: request timeline %+v, want one queueing.percentiles phase", spec, tl)
		}
	}
}

// TestKernelConformanceBatchRejectsBeforeSolving: every kernel's batch
// checks the queue and every p before its first solve, so a bad entry
// anywhere in the list fails the batch with no solve counted, and an
// unstable queue fails it even with an empty list.
func TestKernelConformanceBatchRejectsBeforeSolving(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	searches := reg.Counter("queueing.percentile_searches")
	ctx := context.Background()
	for _, spec := range ConformanceSpecs() {
		k := buildKernel(t, spec, 0.7, 2.5)
		unstable := rawKernel(spec, 1, 1)
		batches := []func(context.Context, []float64) ([]float64, error){
			k.WaitPercentilesContext, k.ResponsePercentilesContext,
		}
		for _, batch := range batches {
			for _, ps := range [][]float64{{50, 100}, {95, 99, -1}, {95, math.NaN()}} {
				before := searches.Value()
				if _, err := batch(ctx, ps); err == nil {
					t.Errorf("%v: batch %v succeeded", spec, ps)
				}
				if n := searches.Value() - before; n != 0 {
					t.Errorf("%v: batch %v solved %d entries before failing", spec, ps, n)
				}
			}
		}
		for _, batch := range []func(context.Context, []float64) ([]float64, error){
			unstable.WaitPercentilesContext, unstable.ResponsePercentilesContext,
		} {
			if _, err := batch(ctx, nil); err == nil {
				t.Errorf("%v: empty batch on an unstable queue succeeded", spec)
			}
		}
	}
}

// rawKernel builds spec's kernel at arrival rate lambda and aggregate
// service time d without Build's checks.
func rawKernel(spec Spec, lambda, d float64) Kernel {
	switch spec.Kind {
	case KindMG1:
		return MG1{Lambda: lambda, D: d, SCV: spec.SCV}
	case KindMMK:
		return MMK{Lambda: lambda, D: d * float64(spec.Servers), K: spec.Servers}
	}
	return MD1{Lambda: lambda, D: d}
}

// TestKernelConformanceStability checks the stability contract: builds
// and validation reject rho >= 1, bad service times and bad percentile
// arguments uniformly across kernels, NaN and infinite ones included
// (a NaN fails no test written as rho >= 1 or d <= 0).
func TestKernelConformanceStability(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, spec := range ConformanceSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			for _, rho := range []float64{-0.1, 1, 1.5, nan} {
				if _, err := spec.Build(rho, 1); err == nil {
					t.Errorf("Build(rho=%g) succeeded", rho)
				}
			}
			for _, d := range []float64{0, nan, inf} {
				if _, err := spec.Build(0.5, d); err == nil {
					t.Errorf("Build(serviceTime=%g) succeeded", d)
				}
			}
			// Queues whose rho is NaN: a NaN arrival rate or service time,
			// or no arrivals at an infinite service time.
			for _, q := range [][2]float64{{nan, 1}, {0.5, nan}, {0, inf}} {
				k := rawKernel(spec, q[0], q[1])
				if err := k.Validate(); err == nil {
					t.Errorf("Validate(lambda=%g, d=%g) succeeded", q[0], q[1])
				}
				if v, err := k.ResponsePercentile(95); err == nil {
					t.Errorf("ResponsePercentile(95) at lambda=%g, d=%g = %g, want an error", q[0], q[1], v)
				}
			}
			k := buildKernel(t, spec, 0.5, 1)
			if err := k.Validate(); err != nil {
				t.Errorf("Validate on a stable queue: %v", err)
			}
			for _, p := range []float64{-1, 100, 120, math.NaN()} {
				if _, err := k.WaitPercentile(p); err == nil {
					t.Errorf("WaitPercentile(%g) succeeded", p)
				}
				if _, err := k.ResponsePercentile(p); err == nil {
					t.Errorf("ResponsePercentile(%g) succeeded", p)
				}
			}
		})
	}
	// The batch-arrival M/D/1 takes the same checks.
	for _, q := range [][2]float64{{nan, 1}, {0.5, nan}, {0.5, inf}} {
		if _, err := NewBatchMD1FromUtilization(q[0], 2, q[1]); err == nil {
			t.Errorf("NewBatchMD1FromUtilization(rho=%g, d=%g) succeeded", q[0], q[1])
		}
	}
	for _, q := range []BatchMD1{{BatchRate: nan, Batch: 2, D: 1}, {BatchRate: 0.1, Batch: 2, D: nan}, {Batch: 2, D: inf}} {
		if err := q.Validate(); err == nil {
			t.Errorf("%+v: Validate succeeded", q)
		}
	}
	// The closed-form M/M/1 the limit tests compare against takes the
	// same range check.
	for _, q := range []MM1{{Lambda: nan, D: 1}, {Lambda: 0.5, D: nan}, {D: inf}} {
		if _, err := q.WaitPercentile(95); err == nil {
			t.Errorf("%+v: M/M/1 WaitPercentile succeeded", q)
		}
		if _, err := q.ResponsePercentile(95); err == nil {
			t.Errorf("%+v: M/M/1 ResponsePercentile succeeded", q)
		}
	}
	mm1 := MM1{Lambda: 0.5, D: 1}
	for _, p := range []float64{-1, 100, math.NaN()} {
		if _, err := mm1.WaitPercentile(p); err == nil {
			t.Errorf("M/M/1 WaitPercentile(%g) succeeded", p)
		}
		if _, err := mm1.ResponsePercentile(p); err == nil {
			t.Errorf("M/M/1 ResponsePercentile(%g) succeeded", p)
		}
	}
}

// simulateSpec runs the DES counterpart of a conformance spec.
func simulateSpec(t testing.TB, spec Spec, k Kernel, opt SimOptions) SimResult {
	t.Helper()
	var (
		sim SimResult
		err error
	)
	if q, ok := k.(MD1); ok {
		k = MG1{Lambda: q.Lambda, D: q.D} // SCV 0: deterministic service
	}
	switch q := k.(type) {
	case MG1:
		service, serr := ServiceSampler(q.D, q.SCV)
		if serr != nil {
			t.Fatalf("ServiceSampler: %v", serr)
		}
		lambda := q.Lambda
		sim, err = SimulateGG1(
			func(rng *stats.RNG) float64 { return rng.ExpFloat64(lambda) },
			service, opt)
	case MMK:
		sim, err = SimulateMMK(q, opt)
	default:
		t.Fatalf("no simulator for kernel %T", k)
	}
	if err != nil {
		t.Fatalf("simulate %v: %v", spec, err)
	}
	return sim
}

// TestKernelConformanceDES cross-validates every kernel against
// discrete-event simulation of its own model: exact kernels within
// Monte-Carlo noise, the two-moment M/G/1 interpolation within its
// documented approximation budget.
func TestKernelConformanceDES(t *testing.T) {
	if testing.Short() {
		t.Skip("DES conformance skipped in -short")
	}
	rhos := []float64{0.55, 0.8}
	for _, spec := range ConformanceSpecs() {
		spec := spec
		tol := conformanceDESTolExact
		ps := []float64{50, 95, 99}
		if spec.Kind == KindMG1 && spec.SCV != 0 && spec.SCV != 1 {
			// The two-moment interpolation is a tail model: pin the tail
			// percentiles only, at the approximation budget.
			tol = conformanceDESTolApprox
			ps = []float64{90, 95, 99}
		}
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			for _, rho := range rhos {
				k := buildKernel(t, spec, rho, 1)
				sim := simulateSpec(t, spec, k, SimOptions{Jobs: 500000, Warmup: 20000, Seed: 42})
				// Means are exact in every kernel, approximate or not.
				if got, want := sim.MeanResponse, k.MeanResponse(); stats.RelErr(got, want) > conformanceDESTolExact {
					t.Errorf("rho=%g: DES mean response %.6g vs kernel %.6g", rho, got, want)
				}
				for _, p := range ps {
					want, err := k.ResponsePercentile(p)
					if err != nil {
						t.Fatalf("ResponsePercentile(%g): %v", p, err)
					}
					got, err := sim.Percentile(p)
					if err != nil {
						t.Fatalf("sim percentile: %v", err)
					}
					if stats.RelErr(got, want) > tol {
						t.Errorf("rho=%g p=%g: DES %.6g vs kernel %.6g (tol %g)", rho, p, got, want, tol)
					}
				}
			}
		})
	}
}

// TestKernelLimitMG1SCVZeroIsMD1 is the acceptance criterion: at
// SCV = 0 the M/G/1 kernel reproduces the M/D/1 percentiles within
// 1e-9 across the differential grid (it delegates, so the match is in
// fact exact).
func TestKernelLimitMG1SCVZeroIsMD1(t *testing.T) {
	for _, rho := range conformanceRhos {
		for _, d := range conformanceDs {
			md1 := buildKernel(t, Spec{Kind: KindMD1}, rho, d)
			mg1 := buildKernel(t, Spec{Kind: KindMG1, SCV: 0}, rho, d)
			for _, p := range append([]float64{10, 99.9}, conformancePs...) {
				wd, err := md1.WaitPercentile(p)
				if err != nil {
					t.Fatalf("md1 WaitPercentile: %v", err)
				}
				wg, err := mg1.WaitPercentile(p)
				if err != nil {
					t.Fatalf("mg1 WaitPercentile: %v", err)
				}
				if wd != wg && stats.RelErr(wg, wd) > 1e-9 {
					t.Errorf("rho=%g d=%g p=%g: mg1@0 wait %.15g vs md1 %.15g", rho, d, p, wg, wd)
				}
				rd, err := md1.ResponsePercentile(p)
				if err != nil {
					t.Fatalf("md1 ResponsePercentile: %v", err)
				}
				rg, err := mg1.ResponsePercentile(p)
				if err != nil {
					t.Fatalf("mg1 ResponsePercentile: %v", err)
				}
				if rd != rg && stats.RelErr(rg, rd) > 1e-9 {
					t.Errorf("rho=%g d=%g p=%g: mg1@0 response %.15g vs md1 %.15g", rho, d, p, rg, rd)
				}
			}
		}
	}
}

// TestKernelLimitMG1SCVOneIsMM1 pins the other exact endpoint: at
// SCV = 1 the M/G/1 kernel matches the M/M/1 closed forms.
func TestKernelLimitMG1SCVOneIsMM1(t *testing.T) {
	for _, rho := range conformanceRhos {
		for _, d := range conformanceDs {
			mg1 := buildKernel(t, Spec{Kind: KindMG1, SCV: 1}, rho, d)
			mm1 := MM1{Lambda: rho / d, D: d}
			for _, p := range append([]float64{10, 99.9}, conformancePs...) {
				wg, err := mg1.WaitPercentile(p)
				if err != nil {
					t.Fatalf("mg1 WaitPercentile: %v", err)
				}
				wm, err := mm1.WaitPercentile(p)
				if err != nil {
					t.Fatalf("mm1 WaitPercentile: %v", err)
				}
				if math.Abs(wg-wm) > 1e-12 && stats.RelErr(wg, wm) > 1e-12 {
					t.Errorf("rho=%g d=%g p=%g: mg1@1 wait %.15g vs mm1 %.15g", rho, d, p, wg, wm)
				}
				rg, err := mg1.ResponsePercentile(p)
				if err != nil {
					t.Fatalf("mg1 ResponsePercentile: %v", err)
				}
				rm, err := mm1.ResponsePercentile(p)
				if err != nil {
					t.Fatalf("mm1 ResponsePercentile: %v", err)
				}
				if math.Abs(rg-rm) > 1e-12 && stats.RelErr(rg, rm) > 1e-12 {
					t.Errorf("rho=%g d=%g p=%g: mg1@1 response %.15g vs mm1 %.15g", rho, d, p, rg, rm)
				}
			}
		}
	}
}

// TestKernelLimitMMKOneServerIsMM1 pins M/M/k at k = 1 to the M/M/1
// closed forms: Erlang-C degenerates to rho and both distributions
// collapse to the single-server forms.
func TestKernelLimitMMKOneServerIsMM1(t *testing.T) {
	for _, rho := range conformanceRhos {
		for _, d := range conformanceDs {
			mmk := buildKernel(t, Spec{Kind: KindMMK, Servers: 1}, rho, d).(MMK)
			mm1 := MM1{Lambda: rho / d, D: d}
			if got := mmk.ErlangC(); stats.RelErr(got, rho) > 1e-12 {
				t.Errorf("rho=%g: ErlangC(1) = %.15g", rho, got)
			}
			for _, p := range append([]float64{10, 99.9}, conformancePs...) {
				wk, err := mmk.WaitPercentile(p)
				if err != nil {
					t.Fatalf("mmk WaitPercentile: %v", err)
				}
				wm, err := mm1.WaitPercentile(p)
				if err != nil {
					t.Fatalf("mm1 WaitPercentile: %v", err)
				}
				if math.Abs(wk-wm) > 1e-12 && stats.RelErr(wk, wm) > 1e-9 {
					t.Errorf("rho=%g d=%g p=%g: mmk@1 wait %.15g vs mm1 %.15g", rho, d, p, wk, wm)
				}
				rk, err := mmk.ResponsePercentile(p)
				if err != nil {
					t.Fatalf("mmk ResponsePercentile: %v", err)
				}
				rm, err := mm1.ResponsePercentile(p)
				if err != nil {
					t.Fatalf("mm1 ResponsePercentile: %v", err)
				}
				if math.Abs(rk-rm) > 1e-9 && stats.RelErr(rk, rm) > 1e-9 {
					t.Errorf("rho=%g d=%g p=%g: mmk@1 response %.15g vs mm1 %.15g", rho, d, p, rk, rm)
				}
			}
		}
	}
}

// TestServiceSamplerMoments checks the moment-matching samplers hit
// their target mean and SCV within Monte-Carlo tolerance at every
// conformance SCV rung plus an off-grid value per regime.
func TestServiceSamplerMoments(t *testing.T) {
	if testing.Short() {
		t.Skip("sampler moments skipped in -short")
	}
	const n = 400000
	for _, scv := range []float64{0, 0.25, 0.5, 0.8, 1, 2, 4} {
		for _, d := range []float64{0.5, 3} {
			sample, err := ServiceSampler(d, scv)
			if err != nil {
				t.Fatalf("ServiceSampler(%g, %g): %v", d, scv, err)
			}
			rng := stats.NewRNG(7)
			var sum, sumsq stats.KahanSum
			for i := 0; i < n; i++ {
				s := sample(rng)
				if s < 0 {
					t.Fatalf("scv=%g: negative sample %g", scv, s)
				}
				sum.Add(s)
				sumsq.Add(s * s)
			}
			mean := sum.Sum() / n
			varv := sumsq.Sum()/n - mean*mean
			gotSCV := varv / (mean * mean)
			if stats.RelErr(mean, d) > 0.02 {
				t.Errorf("scv=%g d=%g: sample mean %.5g", scv, d, mean)
			}
			if scv == 0 {
				if varv > 1e-12 {
					t.Errorf("scv=0: sample variance %.3g", varv)
				}
			} else if stats.RelErr(gotSCV, scv) > 0.06 {
				t.Errorf("scv=%g d=%g: sample SCV %.5g", scv, d, gotSCV)
			}
		}
	}
	if _, err := ServiceSampler(0, 1); err == nil {
		t.Error("ServiceSampler accepted zero mean")
	}
	if _, err := ServiceSampler(1, -1); err == nil {
		t.Error("ServiceSampler accepted negative scv")
	}
}

// TestKernelNamesAndSpecRoundTrip checks the registry plumbing: names
// round-trip through ParseKind, specs render stably, and Build returns
// the matching concrete type.
func TestKernelNamesAndSpecRoundTrip(t *testing.T) {
	for _, spec := range ConformanceSpecs() {
		kind, err := ParseKind(spec.Kind.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", spec.Kind.String(), err)
		}
		if kind != spec.Kind {
			t.Errorf("ParseKind(%q) = %v", spec.Kind.String(), kind)
		}
		k := buildKernel(t, spec, 0.5, 1)
		if k.Name() != spec.Kind.String() {
			t.Errorf("kernel name %q for spec %v", k.Name(), spec)
		}
		if spec.CacheTag() == "" || spec.String() == "" {
			t.Errorf("empty tag for %v", spec)
		}
	}
	if kind, err := ParseKind(""); err != nil || kind != KindMD1 {
		t.Errorf("ParseKind(\"\") = %v, %v", kind, err)
	}
	if _, err := ParseKind("gg1"); err == nil {
		t.Error("ParseKind accepted unknown kernel")
	}
	if err := (Spec{Kind: KindMMK}).Validate(); err == nil {
		t.Error("mmk spec without servers validated")
	}
	if err := (Spec{Kind: KindMG1, SCV: math.Inf(1)}).Validate(); err == nil {
		t.Error("mg1 spec with infinite scv validated")
	}
	if err := (Spec{Kind: KindMD1, SCV: 2}).Validate(); err == nil {
		t.Error("md1 spec with scv validated")
	}
	for _, spec := range []Spec{{Kind: KindMG1, SCV: 0.5}, {Kind: KindMMK, Servers: 4}} {
		want := map[Kind]string{KindMG1: "mg1(scv=0.5)", KindMMK: "mmk(k=4)"}[spec.Kind]
		if got := spec.String(); got != want {
			t.Errorf("spec string %q, want %q", got, want)
		}
	}
	if got := fmt.Sprint(Spec{}); got != "md1" {
		t.Errorf("default spec renders %q", got)
	}
	if !(Spec{}).IsDefault() {
		t.Error("zero Spec not default")
	}
}
