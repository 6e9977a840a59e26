// Package characterize implements the measurement-driven pipeline of
// Figure 1: run micro-benchmarks under the power meter to fit a node
// type's power parameters, and run instrumented workloads to extract
// their service-demand vectors from the simulated perf counters. The
// paper performed both steps on physical nodes; here they run against
// the discrete-event simulator, which is the point — the downstream
// model only ever sees fitted parameters, exactly as in the paper.
package characterize

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/microbench"
	"repro/internal/powermeter"
	"repro/internal/simulator"
	"repro/internal/units"
	"repro/internal/workload"
)

// Options configures the characterization runs.
type Options struct {
	// Duration sizes each micro-benchmark run.
	Duration units.Seconds
	// Effects are the simulator second-order behaviours active during
	// the measurement (a real lab cannot switch them off either).
	Effects simulator.Effects
	// Meter is the power instrument.
	Meter powermeter.Meter
	// Seed makes the measurement campaign reproducible.
	Seed uint64
}

// DefaultOptions returns a 10-second campaign with the default
// instrument and effects.
func DefaultOptions() Options {
	return Options{
		Duration: 10,
		Effects:  simulator.DefaultEffects(),
		Meter:    powermeter.DefaultMeter(),
		Seed:     1,
	}
}

// PowerResult holds the fitted power parameters of one node type plus
// the raw measurements behind them.
type PowerResult struct {
	Node   string
	Params hardware.PowerParams
	// IdlePower, CPUBurnPower, MemStallPower, NetBlastPower are the raw
	// mean powers of the four measurement runs.
	IdlePower, CPUBurnPower, MemStallPower, NetBlastPower units.Watts
}

// PowerParams runs the characterization campaign for one node type:
//
//	P_idle          = mean power with no workload
//	P_CPU,act/core  = (P_cpuburn - P_idle) / cores
//	P_CPU,stall/core= (P_memstall - P_idle - P_mem) / cores
//	P_net           = P_netblast - P_idle
//
// P_mem comes from the memory datasheet exactly as in the paper ("power
// used by active memory is derived from specifications").
func PowerParams(node *hardware.NodeType, opt Options) (PowerResult, error) {
	if err := node.Validate(); err != nil {
		return PowerResult{}, err
	}
	if opt.Duration <= 0 {
		return PowerResult{}, errors.New("characterize: non-positive duration")
	}
	res := PowerResult{Node: node.Name}

	idle, err := simulator.RunIdle(node, opt.Duration, opt.Effects, opt.Meter, opt.Seed)
	if err != nil {
		return PowerResult{}, fmt.Errorf("characterize idle: %w", err)
	}
	res.IdlePower = idle.MeanPower

	run := func(p *workload.Profile) (units.Watts, error) {
		cfg := cluster.MustConfig(cluster.FullNodes(node, 1))
		sres, err := simulator.Run(cfg, p, opt.Effects, opt.Meter, opt.Seed)
		if err != nil {
			return 0, err
		}
		return sres.Measured.MeanPower, nil
	}

	burn, err := microbench.CPUBurn(node, opt.Duration)
	if err != nil {
		return PowerResult{}, err
	}
	if res.CPUBurnPower, err = run(burn); err != nil {
		return PowerResult{}, fmt.Errorf("characterize cpuburn: %w", err)
	}
	stall, err := microbench.MemStall(node, opt.Duration)
	if err != nil {
		return PowerResult{}, err
	}
	if res.MemStallPower, err = run(stall); err != nil {
		return PowerResult{}, fmt.Errorf("characterize memstall: %w", err)
	}
	blast, err := microbench.NetBlast(node, opt.Duration)
	if err != nil {
		return PowerResult{}, err
	}
	if res.NetBlastPower, err = run(blast); err != nil {
		return PowerResult{}, fmt.Errorf("characterize netblast: %w", err)
	}

	cores := float64(node.Cores)
	memSpec := node.Power.Mem // datasheet value
	params := hardware.PowerParams{
		Idle:            res.IdlePower,
		Mem:             memSpec,
		CPUActPerCore:   units.Watts((float64(res.CPUBurnPower) - float64(res.IdlePower)) / cores),
		CPUStallPerCore: units.Watts((float64(res.MemStallPower) - float64(res.IdlePower) - float64(memSpec)) / cores),
		Net:             units.Watts(float64(res.NetBlastPower) - float64(res.IdlePower)),
	}
	if params.CPUActPerCore < 0 || params.CPUStallPerCore < 0 || params.Net < 0 {
		return PowerResult{}, fmt.Errorf("characterize: negative fitted parameter for %s: %+v", node.Name, params)
	}
	res.Params = params
	return res, nil
}

// DemandResult holds an extracted service-demand vector and the run it
// came from.
type DemandResult struct {
	Node     string
	Workload string
	Demand   workload.Demand
	Units    float64
}

// Demands runs one instrumented workload job on a single node and
// derives its per-unit demand vector from the perf counters, plus the
// CPU intensity from the power balance — the paper's workload
// characterization step.
func Demands(node *hardware.NodeType, wl *workload.Profile, fitted hardware.PowerParams, opt Options) (DemandResult, error) {
	cfg := cluster.MustConfig(cluster.FullNodes(node, 1))
	sres, err := simulator.Run(cfg, wl, opt.Effects, opt.Meter, opt.Seed)
	if err != nil {
		return DemandResult{}, err
	}
	cnt := sres.Counters(node.Name)
	u := wl.JobUnits
	if u <= 0 {
		return DemandResult{}, errors.New("characterize: workload has no units")
	}
	cores := float64(node.Cores)
	f := float64(node.FMax())
	d := workload.Demand{
		CoreCycles: units.Cycles(cnt.WorkCycles / u),
		MemCycles:  units.Cycles(cnt.MemCycles / u),
		IOBytes:    units.Bytes(cnt.IOBytes / u),
		IOReqs:     cnt.IORequests / u,
	}
	// Intensity from the power balance of the measured run: attribute
	// the residual above idle + stall + mem + net to active core power.
	t := float64(sres.Time)
	if t <= 0 {
		return DemandResult{}, errors.New("characterize: zero runtime")
	}
	tCore := cnt.WorkCycles / (cores * f)
	tMem := cnt.MemCycles / f
	tStall := tMem - tCore
	if tStall < 0 {
		tStall = 0
	}
	tIO := cnt.IOBytes / float64(node.NICBandwidth)
	residual := float64(sres.Measured.MeanPower) -
		float64(fitted.Idle) -
		float64(fitted.CPUStallPerCore)*cores*(tStall/t) -
		float64(fitted.Mem)*(tMem/t) -
		float64(fitted.Net)*(tIO/t)
	coreShare := float64(fitted.CPUActPerCore) * cores * (tCore / t)
	if coreShare > 0 && residual > 0 {
		d.Intensity = residual / coreShare
	} else {
		d.Intensity = 1
	}
	if err := d.Validate(); err != nil {
		return DemandResult{}, fmt.Errorf("characterize: %w", err)
	}
	return DemandResult{Node: node.Name, Workload: wl.Name, Demand: d, Units: u}, nil
}
