// Package hardware models the server nodes of a heterogeneous cluster:
// core counts, DVFS ladders, memory and network capabilities, and the
// power parameters of Table 1 of the paper (P_CPU,act, P_CPU,stall,
// P_mem, P_net, P_sys,idle).
//
// The paper measured these parameters on physical ARM Cortex-A9 and AMD
// Opteron K10 nodes with micro-benchmarks and a wall power meter. This
// package is the substitute substrate: nodes are parametric models whose
// published characteristics (idle/peak power, core counts, frequency
// ranges, NIC speeds) are encoded in the catalog, and whose power
// parameters can also be re-derived from simulated micro-benchmarks by
// internal/characterize, mirroring the paper's methodology.
package hardware

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// ISA identifies the instruction set architecture of a node type.
type ISA string

// Instruction set architectures of the catalog nodes.
const (
	ISAARMv7 ISA = "ARMv7-A"
	ISAx86   ISA = "x86_64"
)

// PowerParams holds the power-model parameters of one node type at its
// maximum core frequency. Frequency-dependent components are scaled by
// NodeType.PowerAt.
type PowerParams struct {
	// CPUActPerCore is the incremental power of one core executing work
	// cycles (the paper's P_CPU,act, measured per core with a
	// CPU-utilization-maximizing micro-benchmark).
	CPUActPerCore units.Watts
	// CPUStallPerCore is the incremental power of one core stalled on
	// memory (P_CPU,stall, measured with a cache-miss stream).
	CPUStallPerCore units.Watts
	// Mem is the power of an active memory subsystem (P_mem, from DDR
	// specifications in the paper).
	Mem units.Watts
	// Net is the network interface power when transferring (P_net).
	Net units.Watts
	// Idle is the whole-system idle power (P_sys,idle).
	Idle units.Watts
}

// DVFS describes the frequency ladder of a node type.
type DVFS struct {
	// Steps is the list of selectable core frequencies, ascending.
	Steps []units.Hertz
	// DynamicExponent is the exponent alpha in the dynamic-power scaling
	// P_dyn(f) = P_dyn(fmax) * (f/fmax)^alpha. Classic CMOS scaling with
	// voltage tracking frequency gives alpha near 3; constant-voltage
	// scaling gives alpha near 1. The catalog uses 2.2, between the two,
	// which is what the measured ladders of low-power SoCs resemble.
	DynamicExponent float64
}

// NodeType is the immutable description of one kind of server node.
type NodeType struct {
	// Name is a short unique identifier, e.g. "A9" or "K10".
	Name string
	// Model is the human-readable processor name.
	Model string
	// ISA is the instruction set.
	ISA ISA
	// Cores is the number of physical cores per node (c_max).
	Cores int
	// Freq is the DVFS ladder (f in [f_min, f_max]).
	Freq DVFS
	// MemBandwidth is the sustainable memory bandwidth of the single
	// shared memory controller (UMA, per Section II-D).
	MemBandwidth units.BytesPerSecond
	// NICBandwidth is the network I/O bandwidth.
	NICBandwidth units.BytesPerSecond
	// Power holds the power parameters at f_max.
	Power PowerParams
	// NominalPeak is the rated whole-node peak power used for
	// power-budget accounting (5 W for A9, 60 W for K10 in the paper).
	// It can exceed the busy power of any particular workload: it is the
	// provisioning number, not a measured draw.
	NominalPeak units.Watts
	// MemPerNode is the installed memory capacity.
	MemPerNode units.Bytes
}

// Validate checks the node description for internal consistency.
func (n *NodeType) Validate() error {
	if n.Name == "" {
		return errors.New("hardware: node type needs a name")
	}
	if n.Cores <= 0 {
		return fmt.Errorf("hardware: node %s has no cores", n.Name)
	}
	if len(n.Freq.Steps) == 0 {
		return fmt.Errorf("hardware: node %s has no frequency steps", n.Name)
	}
	if !sort.SliceIsSorted(n.Freq.Steps, func(i, j int) bool {
		return n.Freq.Steps[i] < n.Freq.Steps[j]
	}) {
		return fmt.Errorf("hardware: node %s frequency steps not ascending", n.Name)
	}
	for _, f := range n.Freq.Steps {
		if f <= 0 {
			return fmt.Errorf("hardware: node %s has non-positive frequency", n.Name)
		}
	}
	if n.Power.Idle < 0 || n.Power.CPUActPerCore < 0 || n.Power.CPUStallPerCore < 0 ||
		n.Power.Mem < 0 || n.Power.Net < 0 {
		return fmt.Errorf("hardware: node %s has negative power parameter", n.Name)
	}
	if n.NICBandwidth <= 0 {
		return fmt.Errorf("hardware: node %s has no NIC bandwidth", n.Name)
	}
	if n.Freq.DynamicExponent <= 0 {
		return fmt.Errorf("hardware: node %s has non-positive DVFS exponent", n.Name)
	}
	return nil
}

// FMax returns the maximum core frequency.
func (n *NodeType) FMax() units.Hertz { return n.Freq.Steps[len(n.Freq.Steps)-1] }

// FMin returns the minimum core frequency.
func (n *NodeType) FMin() units.Hertz { return n.Freq.Steps[0] }

// HasFreq reports whether f is a selectable step on this node type.
func (n *NodeType) HasFreq(f units.Hertz) bool {
	for _, s := range n.Freq.Steps {
		if s == f {
			return true
		}
	}
	return false
}

// NearestFreq returns the selectable step closest to f (ties go down).
func (n *NodeType) NearestFreq(f units.Hertz) units.Hertz {
	best := n.Freq.Steps[0]
	bestDist := math.Abs(float64(f - best))
	for _, s := range n.Freq.Steps[1:] {
		d := math.Abs(float64(f - s))
		if d < bestDist {
			best, bestDist = s, d
		}
	}
	return best
}

// dynScale returns the dynamic-power scale factor for running at f
// instead of f_max.
func (n *NodeType) dynScale(f units.Hertz) float64 {
	fm := n.FMax()
	if fm <= 0 {
		return 1
	}
	r := float64(f) / float64(fm)
	if r < 0 {
		r = 0
	}
	return math.Pow(r, n.Freq.DynamicExponent)
}

// PowerAt returns the power parameters scaled to core frequency f.
// CPU active and stall powers scale with the DVFS dynamic exponent;
// memory, network and idle power are frequency independent, matching the
// paper's measurement setup where only core clocks are scaled.
func (n *NodeType) PowerAt(f units.Hertz) PowerParams {
	s := n.dynScale(f)
	p := n.Power
	p.CPUActPerCore = units.Watts(float64(p.CPUActPerCore) * s)
	p.CPUStallPerCore = units.Watts(float64(p.CPUStallPerCore) * s)
	return p
}

func (n *NodeType) String() string {
	return fmt.Sprintf("%s(%s, %d cores, %v-%v, idle %v, peak %v)",
		n.Name, n.ISA, n.Cores, n.FMin(), n.FMax(), n.Power.Idle, n.NominalPeak)
}
