package fleet

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/queueing"
)

// latency_test.go covers the analytic tail-latency probe: the summary
// bytes without a probe are untouched, a steady fleet matches the
// kernel computed directly, heavier-tailed kernels probe higher, chaos
// moves the max above the mean, saturation is counted rather than
// faked, and the probe preserves the determinism contract.

// TestLatencyProbeAbsentByDefault: a spec without Latency must not
// leak any probe field into the marshaled summary — the byte-compat
// guarantee existing goldens and differential baselines rely on.
func TestLatencyProbeAbsentByDefault(t *testing.T) {
	res := runSpec(t, testSpec(t, "EP", 0.6, 60))
	raw, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "latency") {
		t.Fatalf("probe-free summary grew latency fields: %s", raw)
	}
	if res.Summary.LatencyKernel != "" || res.Summary.TailLatencySeconds != 0 {
		t.Fatalf("probe-free summary has probe values: %+v", res.Summary)
	}
}

// TestLatencyProbeSteadyState: in a clean constant-load run every
// sample sees the same fleet, so max == avg, nothing saturates, and
// the value is exactly the kernel's percentile at the fleet's
// utilization and aggregate service time.
func TestLatencyProbeSteadyState(t *testing.T) {
	spec := testSpec(t, "EP", 0.6, 60)
	spec.Latency = &LatencySpec{}
	sim, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rate := sim.nominalRate
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.LatencyKernel != "md1" || s.LatencyPercentile != 95 {
		t.Fatalf("probe labels = %q p%g, want md1 p95", s.LatencyKernel, s.LatencyPercentile)
	}
	if s.LatencySaturatedSamples != 0 {
		t.Fatalf("steady run saturated %d samples", s.LatencySaturatedSamples)
	}
	if s.TailLatencySeconds <= 0 || math.Abs(s.TailLatencySeconds-s.AvgTailLatencySeconds) > 1e-12 {
		t.Fatalf("steady run max %g != avg %g", s.TailLatencySeconds, s.AvgTailLatencySeconds)
	}
	k, err := queueing.Spec{}.Build(0.6, 1/rate)
	if err != nil {
		t.Fatal(err)
	}
	want, err := k.ResponsePercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.TailLatencySeconds-want) > 1e-12*want {
		t.Fatalf("probe %g, direct kernel %g", s.TailLatencySeconds, want)
	}
}

// TestLatencyProbeKernelOrdering: at the same load, heavier-tailed
// service must probe a longer tail — mg1(scv=4) above md1 — and the
// probed percentiles must be monotone in p.
func TestLatencyProbeKernelOrdering(t *testing.T) {
	probe := func(ls *LatencySpec) float64 {
		t.Helper()
		spec := testSpec(t, "EP", 0.7, 30)
		spec.Latency = ls
		return runSpec(t, spec).Summary.TailLatencySeconds
	}
	md1 := probe(&LatencySpec{})
	mg1 := probe(&LatencySpec{Kernel: queueing.Spec{Kind: queueing.KindMG1, SCV: 4}})
	if !(mg1 > md1) {
		t.Fatalf("mg1(scv=4) probe %g not above md1 %g", mg1, md1)
	}
	p50 := probe(&LatencySpec{Percentile: 50})
	p99 := probe(&LatencySpec{Percentile: 99})
	if !(p50 < md1 && md1 < p99) {
		t.Fatalf("percentiles not monotone: p50 %g, p95 %g, p99 %g", p50, md1, p99)
	}
}

// TestLatencyProbeAliveCountMMK: the Servers == 0 M/M/k spec pools the
// alive node count; it must validate, run, and label itself.
func TestLatencyProbeAliveCountMMK(t *testing.T) {
	spec := testSpec(t, "EP", 0.6, 30)
	spec.Latency = &LatencySpec{Kernel: queueing.Spec{Kind: queueing.KindMMK}}
	s := runSpec(t, spec).Summary
	if s.LatencyKernel != "mmk(k=alive)" {
		t.Fatalf("label %q, want mmk(k=alive)", s.LatencyKernel)
	}
	if s.TailLatencySeconds <= 0 || s.LatencySaturatedSamples != 0 {
		t.Fatalf("alive-count mmk probe: %+v", s)
	}
}

// TestLatencyProbeUnderChaos: failing half the A9 slab mid-run raises
// the tail above the steady value (max > avg) without saturating a
// moderately loaded fleet; offering more than the degraded fleet can
// carry must count saturated samples instead of inventing a latency.
func TestLatencyProbeUnderChaos(t *testing.T) {
	spec := testSpec(t, "EP", 0.6, 60)
	spec.Latency = &LatencySpec{}
	spec.Events = []TimedEvent{{
		At: 20, Action: ActionFail, Target: Target{Type: "A9", Count: 4, Node: AllNodes},
	}}
	s := runSpec(t, spec).Summary
	if !(s.TailLatencySeconds > s.AvgTailLatencySeconds) {
		t.Fatalf("chaos did not move the tail: max %g, avg %g",
			s.TailLatencySeconds, s.AvgTailLatencySeconds)
	}
	if s.LatencySaturatedSamples != 0 {
		t.Fatalf("moderate load saturated %d samples", s.LatencySaturatedSamples)
	}

	hot := testSpec(t, "EP", 0.95, 60)
	hot.Latency = &LatencySpec{}
	hot.Events = []TimedEvent{{
		At: 20, Action: ActionFail, Target: Target{Type: "A9", Count: 6, Node: AllNodes},
	}}
	hs := runSpec(t, hot).Summary
	if hs.LatencySaturatedSamples == 0 {
		t.Fatal("overloaded degraded fleet reported no saturated samples")
	}
	if hs.LostUnits <= 0 {
		t.Fatalf("saturated fleet lost no work: %+v", hs)
	}
}

// TestLatencyProbeDeterminism: the probe is part of the determinism
// contract — two runs of the same spec marshal bitwise-identically.
func TestLatencyProbeDeterminism(t *testing.T) {
	make := func() Spec {
		spec := testSpec(t, "EP", 0.8, 45)
		spec.Latency = &LatencySpec{Kernel: queueing.Spec{Kind: queueing.KindMG1, SCV: 2}, Percentile: 99}
		spec.Chaos = Chaos{Enabled: true, MTBF: 40, MTTR: 10}
		return spec
	}
	a, err := json.Marshal(runSpec(t, make()).Summary)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(runSpec(t, make()).Summary)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("summaries differ:\n%s\n%s", a, b)
	}
}

// TestLatencySpecValidation pins the error surface.
func TestLatencySpecValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		ls   LatencySpec
		want string
	}{
		{"bad percentile", LatencySpec{Percentile: 100}, "outside [0, 100)"},
		{"scv on md1", LatencySpec{Kernel: queueing.Spec{SCV: 1}}, "scv applies"},
		{"negative scv", LatencySpec{Kernel: queueing.Spec{Kind: queueing.KindMG1, SCV: -1}}, "must be finite"},
	} {
		err := tc.ls.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want containing %q", tc.name, err, tc.want)
		}
	}
	ok := LatencySpec{Kernel: queueing.Spec{Kind: queueing.KindMMK}} // alive-count pool
	if err := ok.Validate(); err != nil {
		t.Errorf("alive-count mmk rejected: %v", err)
	}
	spec := testSpec(t, "EP", 0.5, 10)
	spec.Latency = &LatencySpec{Percentile: -1}
	if _, err := New(spec); err == nil {
		t.Error("Spec.Validate did not reach the latency spec")
	}
}
