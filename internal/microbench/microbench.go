// Package microbench defines the characterization micro-benchmarks of
// Section II-B: cpuburn maximizes CPU utilization to expose P_CPU,act,
// memstall generates a stream of cache misses to expose P_CPU,stall, and
// netblast saturates the NIC to expose P_net. They are expressed as
// workload profiles and executed on the cluster simulator, mirroring how
// the paper ran them on physical nodes under the power monitor.
package microbench

import (
	"repro/internal/hardware"
	"repro/internal/units"
	"repro/internal/workload"
)

// Names of the micro-benchmarks.
const (
	NameCPUBurn  = "cpuburn"
	NameMemStall = "memstall"
	NameNetBlast = "netblast"
)

// CPUBurn returns a profile that keeps every core retiring work cycles
// with no memory or I/O activity, at full functional-unit intensity.
func CPUBurn(node *hardware.NodeType, duration units.Seconds) (*workload.Profile, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	// Size the job so one node at fmax finishes in the duration.
	cycles := float64(node.FMax()) * float64(node.Cores) * float64(duration)
	p := workload.NewProfile(NameCPUBurn, workload.DomainSynthetic, "iterations", cycles/100)
	err := p.SetDemand(node.Name, workload.Demand{
		CoreCycles: 100,
		Intensity:  1,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// MemStall returns a profile that is a pure cache-miss stream: the cores
// stall on the memory controller for the whole run.
func MemStall(node *hardware.NodeType, duration units.Seconds) (*workload.Profile, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	cycles := float64(node.FMax()) * float64(duration)
	p := workload.NewProfile(NameMemStall, workload.DomainSynthetic, "misses", cycles/100)
	err := p.SetDemand(node.Name, workload.Demand{
		MemCycles: 100,
		// Intensity is irrelevant with zero core cycles but must be
		// positive for validation.
		Intensity: 1,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// NetBlast returns a profile that saturates the NIC with no CPU work.
func NetBlast(node *hardware.NodeType, duration units.Seconds) (*workload.Profile, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	bytes := float64(node.NICBandwidth) * float64(duration)
	p := workload.NewProfile(NameNetBlast, workload.DomainSynthetic, "bytes", bytes/1000)
	err := p.SetDemand(node.Name, workload.Demand{
		IOBytes:   1000,
		Intensity: 1,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
