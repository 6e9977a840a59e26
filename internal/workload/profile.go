// Package workload describes the programs executed on the cluster as
// service-demand profiles: how many core cycles, memory cycles and I/O
// bytes one unit of work costs on each node type, plus how intensely the
// work exercises the CPU's functional units (which sets its power draw).
//
// The paper obtained these demands by running the real programs under
// perf on physical nodes ("Workload Characterization" in Fig. 1). This
// package substitutes a calibration solver that inverts the paper's
// published operating points — throughput-per-watt (Table 6) and
// idle-to-peak power ratio (Table 7) — into demand vectors for the node
// models. The forward model then reproduces those tables, which the test
// suite asserts.
package workload

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/hardware"
	"repro/internal/units"
)

// Domain labels the application domain of a workload (Table 4).
type Domain string

// Application domains of the paper's workload mix.
const (
	DomainHPC       Domain = "HPC"
	DomainWebServer Domain = "Web Server"
	DomainStreaming Domain = "Streaming video"
	DomainFinancial Domain = "Financial"
	DomainSpeech    Domain = "Speech recognition"
	DomainWebSec    Domain = "Web security"
	DomainSynthetic Domain = "Synthetic"
)

// Demand is the per-work-unit resource cost of a workload on one node
// type, the quantities the Table 2 time model consumes.
type Demand struct {
	// CoreCycles is the number of work cycles per unit, spread across the
	// active cores (cycles_core in Table 1).
	CoreCycles units.Cycles
	// MemCycles is the number of memory-stall cycles per unit, serialized
	// on the single shared memory controller (cycles_mem).
	MemCycles units.Cycles
	// IOBytes is the network I/O volume per unit.
	IOBytes units.Bytes
	// IOReqs is the number of discrete I/O requests per unit, which
	// interacts with the workload's I/O inter-arrival limit λ_I/O.
	IOReqs float64
	// Intensity scales the CPU active power while executing work cycles.
	// It captures the instruction mix: SIMD-heavy encoders draw more per
	// cycle than scalar integer code. 1.0 means the node's measured
	// P_CPU,act micro-benchmark draw.
	Intensity float64
}

// Validate checks the demand vector.
func (d Demand) Validate() error {
	if d.CoreCycles < 0 || d.MemCycles < 0 || d.IOBytes < 0 || d.IOReqs < 0 {
		return errors.New("workload: negative demand component")
	}
	if d.CoreCycles == 0 && d.MemCycles == 0 && d.IOBytes == 0 {
		return errors.New("workload: demand has no resource usage")
	}
	if d.Intensity <= 0 {
		return errors.New("workload: non-positive intensity")
	}
	return nil
}

// Profile is a complete workload description.
type Profile struct {
	// Name is the program name, e.g. "EP" or "x264".
	Name string
	// Domain is the application domain.
	Domain Domain
	// Unit names the unit of work, e.g. "random numbers" or "frames".
	Unit string
	// JobUnits is the amount of work constituting one job (one batch
	// submitted to the cluster); utilization sweeps vary the number of
	// jobs per observation window.
	JobUnits float64
	// IORate is the workload's I/O request inter-arrival rate λ_I/O;
	// zero means I/O is never arrival-limited.
	IORate units.PerSecond
	// Irregularity captures data-dependent control flow the analytical
	// model cannot see: the mean fractional slowdown (and half of it as
	// jitter) the discrete-event simulator applies on top of the modeled
	// service demands. It is the dominant source of the model-versus-
	// measured validation error (Table 4). Zero means fully regular.
	Irregularity float64
	// demands maps node-type name to the unit demand on that node type.
	demands map[string]Demand
}

// NewProfile creates a profile with no per-node demands yet.
func NewProfile(name string, domain Domain, unit string, jobUnits float64) *Profile {
	return &Profile{
		Name:     name,
		Domain:   domain,
		Unit:     unit,
		JobUnits: jobUnits,
		demands:  make(map[string]Demand),
	}
}

// SetDemand installs the demand vector for a node type.
func (p *Profile) SetDemand(nodeType string, d Demand) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("workload %s on %s: %w", p.Name, nodeType, err)
	}
	p.demands[nodeType] = d
	return nil
}

// Demand returns the demand vector for a node type.
func (p *Profile) Demand(nodeType string) (Demand, error) {
	d, ok := p.demands[nodeType]
	if !ok {
		return Demand{}, fmt.Errorf("workload %s has no demand for node type %q", p.Name, nodeType)
	}
	return d, nil
}

// Supports reports whether the profile has a demand for the node type.
func (p *Profile) Supports(nodeType string) bool {
	_, ok := p.demands[nodeType]
	return ok
}

// Validate checks the profile for completeness against the node types it
// claims to support.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return errors.New("workload: profile needs a name")
	}
	if p.JobUnits <= 0 {
		return fmt.Errorf("workload %s: job units must be positive", p.Name)
	}
	if len(p.demands) == 0 {
		return fmt.Errorf("workload %s: no node demands", p.Name)
	}
	for nt, d := range p.demands {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("workload %s on %s: %w", p.Name, nt, err)
		}
	}
	return nil
}

func (p *Profile) String() string {
	return fmt.Sprintf("%s(%s, %g %s/job, %d node types)",
		p.Name, p.Domain, p.JobUnits, p.Unit, len(p.demands))
}

// Structure describes the shape of one work unit relative to its total
// unit time at full cores and maximum frequency: which resource binds and
// how busy the others are. Fractions are relative to the unit time; the
// binding resource has fraction 1.
type Structure struct {
	// CoreFrac is T_core / T_unit.
	CoreFrac float64
	// MemFrac is T_mem / T_unit.
	MemFrac float64
	// IOFrac is T_I/O / T_unit.
	IOFrac float64
}

// Validate checks that exactly the binding resource has fraction 1 and
// all fractions are in [0, 1].
func (s Structure) Validate() error {
	max := s.CoreFrac
	if s.MemFrac > max {
		max = s.MemFrac
	}
	if s.IOFrac > max {
		max = s.IOFrac
	}
	if max < 0.999 || max > 1.001 {
		return fmt.Errorf("workload: structure must have binding fraction 1, got max %g", max)
	}
	for _, f := range []float64{s.CoreFrac, s.MemFrac, s.IOFrac} {
		if f < 0 || f > 1.001 {
			return fmt.Errorf("workload: structure fraction %g out of [0,1]", f)
		}
	}
	return nil
}

// Registry is a set of workload profiles keyed by name.
type Registry struct {
	profiles map[string]*Profile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{profiles: make(map[string]*Profile)}
}

// Register adds a validated profile, failing on duplicates.
func (r *Registry) Register(p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, ok := r.profiles[p.Name]; ok {
		return fmt.Errorf("workload: profile %q already registered", p.Name)
	}
	r.profiles[p.Name] = p
	return nil
}

// Lookup returns the profile with the given name.
func (r *Registry) Lookup(name string) (*Profile, error) {
	p, ok := r.profiles[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown profile %q", name)
	}
	return p, nil
}

// Names returns the registered profile names in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.profiles))
	for k := range r.profiles {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// nodeTypeOrErr is a helper shared by the calibration code.
func nodeTypeOrErr(n *hardware.NodeType) error {
	if n == nil {
		return errors.New("workload: nil node type")
	}
	return n.Validate()
}
