package queueing

import (
	"math"
	"testing"
)

// FuzzWaitPercentileDifferential drives the fast percentile kernel —
// rho on its 2^-40 lattice, the normalized-queue float64 solve — against
// the original big.Float reference search at the *exact* rho, across
// randomized (rho, p, D). The 1e-9 relative budget covers both the
// solver tolerance and the lattice (see quantizeRho for the sensitivity
// bound). `make fuzz` runs this as a short smoke; longer -fuzztime runs
// explore deeper.
func FuzzWaitPercentileDifferential(f *testing.F) {
	f.Add(0.5, 95.0, 1.0)
	f.Add(0.7, 99.0, 0.008765)
	f.Add(0.1, 50.0, 123.0)
	f.Add(0.9, 99.9, 1e-3)
	f.Add(0.333333333333, 75.0, 3.0)
	f.Fuzz(func(t *testing.T, rho, p, d float64) {
		// Clamp into the domain instead of rejecting, so every input
		// exercises the kernel. High rho makes the reference search very
		// slow (k grows with W/D), so cap it for smoke-speed runs.
		if !isFinite(rho) || !isFinite(p) || !isFinite(d) {
			t.Skip()
		}
		rho = 0.01 + math.Mod(math.Abs(rho), 0.94)
		p = 1 + math.Mod(math.Abs(p), 98.99)
		d = math.Exp(math.Mod(math.Abs(d), 12) - 6) // ~[2.5e-3, 400]

		q, err := NewMD1FromUtilization(rho, d)
		if err != nil {
			t.Fatalf("rho=%g d=%g: %v", rho, d, err)
		}
		fast, err := q.WaitPercentile(p)
		if err != nil {
			t.Fatalf("fast kernel rho=%g p=%g d=%g: %v", rho, p, d, err)
		}
		ref, err := q.waitPercentileReference(p)
		if err != nil {
			t.Fatalf("reference rho=%g p=%g d=%g: %v", rho, p, d, err)
		}
		diff := math.Abs(fast - ref)
		if diff > 1e-9*math.Max(1, math.Max(fast, ref)) {
			t.Fatalf("rho=%g p=%g d=%g: fast=%.17g reference=%.17g (diff %g)",
				rho, p, d, fast, ref, diff)
		}
		// The fast value must also land on the reference CDF at its
		// target probability (within the same budget scaled by slope).
		if fast > 0 {
			cdf := q.waitCDFReference(fast)
			if cdf < (p/100)-1e-6 || cdf > (p/100)+1e-6 {
				t.Fatalf("rho=%g p=%g d=%g: reference CDF at fast percentile = %.12g, want %g",
					rho, p, d, cdf, p/100)
			}
		}
	})
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// FuzzKernelDifferential extends the differential fuzz across the
// kernel registry: randomized (kernel, shape, rho, p) resolved through
// a Spec — exactly as the epserve request fields select kernels — with
// the fast percentile pinned to the kernel's slow reference within the
// same 1e-9 budget as the M/D/1 target. The kind selector wraps, so
// every input lands on a real kernel.
func FuzzKernelDifferential(f *testing.F) {
	f.Add(0.7, 95.0, 0.5, uint8(5), uint8(1))
	f.Add(0.5, 99.0, 4.0, uint8(1), uint8(1))
	f.Add(0.85, 90.0, 0.0, uint8(16), uint8(2))
	f.Add(0.3, 50.0, 1.0, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, rho, p, scv float64, servers, kindSel uint8) {
		if !isFinite(rho) || !isFinite(p) || !isFinite(scv) {
			t.Skip()
		}
		rho = 0.01 + math.Mod(math.Abs(rho), 0.9)
		p = 1 + math.Mod(math.Abs(p), 98.99)
		scv = math.Mod(math.Abs(scv), 6)
		spec := Spec{Kind: Kind(kindSel % 3)}
		switch spec.Kind {
		case KindMG1:
			spec.SCV = scv
		case KindMMK:
			spec.Servers = 1 + int(servers%32)
		}
		k, err := spec.Build(rho, 1)
		if err != nil {
			t.Fatalf("%v.Build(%g, 1): %v", spec, rho, err)
		}
		fast, err := k.WaitPercentile(p)
		if err != nil {
			t.Fatalf("%v rho=%g p=%g: %v", spec, rho, p, err)
		}
		var ref float64
		switch q := k.(type) {
		case MD1:
			ref, err = q.waitPercentileReference(p)
		case MG1:
			ref, err = q.waitPercentileReference(p)
		case MMK:
			ref, err = q.waitPercentileReference(p)
		}
		if err != nil {
			t.Fatalf("%v reference rho=%g p=%g: %v", spec, rho, p, err)
		}
		diff := math.Abs(fast - ref)
		if diff > 1e-9*math.Max(1, math.Max(fast, ref)) {
			t.Fatalf("%v rho=%g p=%g: fast=%.17g reference=%.17g (diff %g)",
				spec, rho, p, fast, ref, diff)
		}
	})
}
