package queueing

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Kernel is the model-agnostic queueing interface: everything the
// frontier sweeps, the epserve endpoints, and the fleet simulator need
// from an arrival/service discipline. MD1 (Crommelin), MG1
// (Pollaczek-Khinchine, SCV-parameterized) and MMK (Erlang-C
// multi-server) implement it; the shared conformance suite in
// conformance_test.go is the contract every implementation — current
// and future — must pass: percentiles pinned to slow references and to
// DES simulation, CDF/percentile inversion, monotonicity in rho and p,
// and scale invariance in the service time.
type Kernel interface {
	// Name returns the kernel's registry name ("md1", "mg1", "mmk").
	Name() string
	// Rho returns the (per-server) utilization.
	Rho() float64
	// Validate checks the parameters for stability: rho < 1 and a
	// finite, positive service time; NaN fails every check.
	Validate() error
	// MeanWait returns the mean queueing delay before service.
	MeanWait() float64
	// MeanResponse returns the mean sojourn time (wait plus service).
	MeanResponse() float64
	// WaitCDF returns P(W <= t) for the waiting time W.
	WaitCDF(t float64) float64
	// ResponseCDF returns P(R <= t) for the sojourn time R.
	ResponseCDF(t float64) float64
	// WaitPercentile returns the p-th percentile (p in [0,100)) of the
	// waiting time.
	WaitPercentile(p float64) (float64, error)
	// ResponsePercentile returns the p-th percentile of the sojourn.
	ResponsePercentile(p float64) (float64, error)
	// WaitPercentilesContext is the batch API with cancellation: results
	// are identical to calling WaitPercentile per entry, in input order.
	WaitPercentilesContext(ctx context.Context, ps []float64) ([]float64, error)
	// ResponsePercentilesContext is the batched sojourn percentiles.
	ResponsePercentilesContext(ctx context.Context, ps []float64) ([]float64, error)
}

// Compile-time interface checks for every registered kernel.
var (
	_ Kernel = MD1{}
	_ Kernel = MG1{}
	_ Kernel = MMK{}
)

// errServiceTime rejects a service time that is not finite and positive.
var errServiceTime = errors.New("queueing: service time must be finite and positive")

// finitePositive reports whether v is a usable service time: finite and
// positive. NaN fails, as it fails every range check written in the
// form !(lo <= v && v < hi), the form the kernels' checks take.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Kind names a kernel family. The zero value is M/D/1, so the zero Spec
// reproduces the paper's model and every pre-kernel call site keeps its
// exact behavior.
type Kind uint8

const (
	// KindMD1 is the paper's M/D/1 queue (deterministic service).
	KindMD1 Kind = iota
	// KindMG1 is the two-moment M/G/1 queue parameterized by the
	// service-time SCV.
	KindMG1
	// KindMMK is the M/M/k multi-server queue (Erlang-C).
	KindMMK
)

// String returns the registry name of the kind.
func (k Kind) String() string {
	switch k {
	case KindMD1:
		return "md1"
	case KindMG1:
		return "mg1"
	case KindMMK:
		return "mmk"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a kernel name. The empty string is the M/D/1
// default, so request fields and config keys that omit the kernel keep
// the paper's model.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "md1":
		return KindMD1, nil
	case "mg1":
		return KindMG1, nil
	case "mmk":
		return KindMMK, nil
	}
	return 0, fmt.Errorf("queueing: unknown kernel %q (want md1, mg1 or mmk)", s)
}

// Spec selects and parameterizes a kernel without committing to a load
// point: Build instantiates it at a concrete utilization and service
// time. The zero Spec is the M/D/1 default.
type Spec struct {
	// Kind selects the kernel family.
	Kind Kind
	// SCV is the squared coefficient of variation of the service time
	// (M/G/1 only): 0 reproduces M/D/1, 1 matches M/M/1.
	SCV float64
	// Servers is the server count k (M/M/k only).
	Servers int
}

// IsDefault reports whether the spec selects the M/D/1 default, whose
// responses and golden outputs carry no kernel fields.
func (s Spec) IsDefault() bool { return s.Kind == KindMD1 }

// Validate checks the spec's shape parameters for the selected kind.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindMD1:
		if s.SCV != 0 {
			return errors.New("queueing: scv applies to the mg1 kernel only")
		}
		if s.Servers != 0 {
			return errors.New("queueing: servers applies to the mmk kernel only")
		}
	case KindMG1:
		if s.SCV < 0 || math.IsInf(s.SCV, 0) || math.IsNaN(s.SCV) {
			return fmt.Errorf("queueing: scv %g must be finite and >= 0", s.SCV)
		}
		if s.Servers != 0 {
			return errors.New("queueing: servers applies to the mmk kernel only")
		}
	case KindMMK:
		if s.Servers < 1 {
			return fmt.Errorf("queueing: mmk needs servers >= 1, got %d", s.Servers)
		}
		if s.SCV != 0 {
			return errors.New("queueing: scv applies to the mg1 kernel only")
		}
	default:
		return fmt.Errorf("queueing: unknown kernel kind %d", uint8(s.Kind))
	}
	return nil
}

// String renders the spec with its shape parameters ("md1",
// "mg1(scv=0.5)", "mmk(k=4)").
func (s Spec) String() string {
	switch s.Kind {
	case KindMG1:
		return fmt.Sprintf("mg1(scv=%g)", s.SCV)
	case KindMMK:
		return fmt.Sprintf("mmk(k=%d)", s.Servers)
	}
	return s.Kind.String()
}

// CacheTag returns a stable token naming the kernel identity, for
// callers that build coalescing keys above the kernel (the epserve
// frontier flight).
func (s Spec) CacheTag() string {
	switch s.Kind {
	case KindMG1:
		return fmt.Sprintf("mg1:%g", s.SCV)
	case KindMMK:
		return fmt.Sprintf("mmk:%d", s.Servers)
	}
	return "md1"
}

// Build instantiates the kernel at utilization rho with the given
// aggregate service time (seconds per job with the whole cluster on
// it). For M/M/k the aggregate time is spread over k servers — each
// server serves a full job in k*serviceTime — preserving both total
// capacity and per-server utilization, so a cluster of N wimpy nodes is
// modeled as one k-server queue rather than N independent M/D/1s.
func (s Spec) Build(rho, serviceTime float64) (Kernel, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindMG1:
		return NewMG1FromUtilization(rho, serviceTime, s.SCV)
	case KindMMK:
		return NewMMKFromUtilization(rho, serviceTime, s.Servers)
	}
	return NewMD1FromUtilization(rho, serviceTime)
}

// ConformanceSpecs returns the registered kernel parameterizations the
// shared conformance suite pins: the M/D/1 default, M/G/1 across the
// SCV ladder (deterministic, Erlang-like, exponential, hyperexponential)
// and M/M/k at several server counts. New kernels join the suite by
// appearing here.
func ConformanceSpecs() []Spec {
	return []Spec{
		{Kind: KindMD1},
		{Kind: KindMG1, SCV: 0},
		{Kind: KindMG1, SCV: 0.5},
		{Kind: KindMG1, SCV: 1},
		{Kind: KindMG1, SCV: 4},
		{Kind: KindMMK, Servers: 1},
		{Kind: KindMMK, Servers: 4},
		{Kind: KindMMK, Servers: 16},
	}
}
