package queueing

import (
	"math"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestPercentileConcurrentSameBits: goroutines solving overlapping
// (rho, p, D) through the M/D/1 and M/G/1-mixture kernels read exactly
// the bits of the serial solve. The solves share no state, so this is
// the race detector's check that they stay that way (`make race`).
func TestPercentileConcurrentSameBits(t *testing.T) {
	specs := []Spec{{Kind: KindMD1}, {Kind: KindMG1, SCV: 0.5}}
	rhos := []float64{0.31, 0.54, 0.77, 0.9, 0.995}
	ps := []float64{50, 90, 95, 99, 99.9}
	ds := []float64{1, 2.5, 1e-3}
	type query struct {
		spec       Spec
		rho, p, d  float64
		wait, resp float64
	}
	var qs []query
	for _, spec := range specs {
		for _, rho := range rhos {
			for _, p := range ps {
				for _, d := range ds {
					k, err := spec.Build(rho, d)
					if err != nil {
						t.Fatal(err)
					}
					w, err := k.WaitPercentile(p)
					if err != nil {
						t.Fatal(err)
					}
					r, err := k.ResponsePercentile(p)
					if err != nil {
						t.Fatal(err)
					}
					qs = append(qs, query{spec, rho, p, d, w, r})
				}
			}
		}
	}

	const workers = 16
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(qs) {
				q := qs[(w*7+i)%len(qs)]
				k, err := q.spec.Build(q.rho, q.d)
				if err != nil {
					t.Error(err)
					return
				}
				wait, err1 := k.WaitPercentile(q.p)
				resp, err2 := k.ResponsePercentile(q.p)
				if err1 != nil || err2 != nil ||
					math.Float64bits(wait) != math.Float64bits(q.wait) || math.Float64bits(resp) != math.Float64bits(q.resp) {
					t.Errorf("%v rho=%g p=%g D=%g: wait %.17g resp %.17g (%v, %v), serial %.17g %.17g",
						q.spec, q.rho, q.p, q.d, wait, resp, err1, err2, q.wait, q.resp)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPercentileColdZeroAlloc: a percentile solve at a utilization no
// earlier call has used allocates nothing, for the M/D/1 kernel in its
// body and tail and for both M/G/1 mixture curves.
func TestPercentileColdZeroAlloc(t *testing.T) {
	telemetry.SetGlobal(nil) // nil-registry no-op instruments, as in CLI default
	for _, tc := range []struct {
		name   string
		lo, hi float64
		solve  func(rho float64) (float64, error)
	}{
		{"md1 body", 0.1, 0.7, func(rho float64) (float64, error) { return MD1{Lambda: rho / 3.5, D: 3.5}.WaitPercentile(99) }},
		{"md1 tail", 0.85, 0.99, func(rho float64) (float64, error) { return MD1{Lambda: rho / 3.5, D: 3.5}.ResponsePercentile(99) }},
		{"mg1 mixture wait", 0.3, 0.95, func(rho float64) (float64, error) {
			return MG1{Lambda: rho / 3.5, D: 3.5, SCV: 0.5}.WaitPercentile(99)
		}},
		{"mg1 mixture response", 0.3, 0.95, func(rho float64) (float64, error) {
			return MG1{Lambda: rho / 3.5, D: 3.5, SCV: 0.25}.ResponsePercentile(99)
		}},
	} {
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			i++
			v, err := tc.solve(coldRho(i, tc.lo, tc.hi))
			if err != nil {
				t.Fatal(err)
			}
			benchSink = v
		})
		if allocs != 0 {
			t.Errorf("%s: a cold solve allocated %.1f times, want 0", tc.name, allocs)
		}
	}
}

// TestNearSaturationExactRho: past rho ≈ 0.9909 the percentile solves
// at the exact rho, not at its 2^-40 lattice point, which would move
// the answer by about 2^-40/(1-rho) relative: 4.4e-4 at 1 - 1e-11. The
// far tail is the dominant root's term alone, so the big.Float root at
// the exact rho is the reference.
func TestNearSaturationExactRho(t *testing.T) {
	rho, p := 1-1e-11, 99.99999999 // float64, so 1-p/100 rounds as the kernel's does
	got, err := MD1{Lambda: rho, D: 1}.WaitPercentile(p)
	if err != nil {
		t.Fatal(err)
	}
	gamma, c0 := dominantRootReference(rho)
	want := math.Log(c0/(1-p/100)) / gamma
	if relOrAbs(got, want) > 1e-9 {
		t.Fatalf("rho=1-1e-11 p%g: w %.15g, exact-rho dominant root %.15g (rel %.2e)",
			p, got, want, relOrAbs(got, want))
	}
}

// TestMG1MixtureSolveCDFCalls: the M/G/1 mixture solves are Newton on
// ln(1 - F) from the M/D/1 percentile, so a solve, the M/D/1 one
// included, takes a handful of CDF evaluations on the accuracy grid
// (a bracketing regula falsi took 16-22).
func TestMG1MixtureSolveCDFCalls(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	calls := reg.Counter("queueing.wait_cdf_calls")
	for _, resp := range []bool{false, true} {
		var n, total, worst uint64
		for rho := 0.05; rho < 0.99; rho += 0.01 {
			for _, scv := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
				for _, p := range []float64{50, 90, 95, 99, 99.9} {
					target := p / 100
					if 1-rho >= target {
						continue
					}
					before := calls.Value()
					if resp {
						benchSink = mg1ResponsePercentile(rho, scv, target)
					} else {
						benchSink = mg1WaitPercentile(rho, scv, target)
					}
					k := calls.Value() - before
					n, total, worst = n+1, total+k, max(worst, k)
				}
			}
		}
		mean := float64(total) / float64(n)
		t.Logf("response=%t: %d solves, %.2f CDF calls each, at most %d", resp, n, mean, worst)
		if mean > 8 || worst > 14 {
			t.Errorf("response=%t: %.2f CDF calls per solve (max %d), want at most 8 (max 14)", resp, mean, worst)
		}
	}
}

// TestMG1MixtureAtomOnLattice: a utilization an ulp above 1-p/100
// passes the kernels' atom check, while its lattice point puts the
// target inside the atom at zero; the mixture wait then answers 0, as
// the M/D/1 kernel does.
func TestMG1MixtureAtomOnLattice(t *testing.T) {
	rho := math.Nextafter(0.5, 1)
	q := MG1{Lambda: rho, D: 1, SCV: 0.5}
	w, err := q.WaitPercentile(50)
	if err != nil || w != 0 {
		t.Fatalf("wait p50 at rho=%.17g: %g (%v), want 0", rho, w, err)
	}
	if wd, _ := q.md1().WaitPercentile(50); wd != 0 {
		t.Fatalf("M/D/1 wait p50 at rho=%.17g: %g, want 0", rho, wd)
	}
}
