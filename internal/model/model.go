// Package model implements the measurement-driven time-energy model of
// Table 2 of the paper (originally from the authors' ICPP'14 work, ref
// [31]): per-node-type response times with out-of-order overlap between
// core and memory activity and DMA overlap between CPU and network I/O,
// rate-matched work splitting across heterogeneous node types, and the
// energy decomposition into active, stall, memory, I/O and idle
// components.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/units"
	"repro/internal/workload"
)

// Options tune model variants. The zero value is the paper's model.
type Options struct {
	// MemFrequencyInvariant, when set, makes memory time independent of
	// the core clock (T_mem referenced at f_max) instead of the paper's
	// literal T_mem = cycles_mem / f. The paper measures cycles at each
	// operating frequency so its formula is self-consistent; this flag
	// exists as an ablation for demand vectors referenced at f_max only.
	MemFrequencyInvariant bool
}

// GroupResult is the model outcome for one homogeneous group of a
// configuration. Times are wall-clock for the group's share of the job;
// energies are per node.
type GroupResult struct {
	Group cluster.Group
	// Units is the work assigned to the whole group; UnitsPerNode is the
	// per-node share.
	Units, UnitsPerNode float64
	// Component times (per node): core execution, memory, the overlapped
	// CPU response, network I/O, stall (non-overlapped memory), and the
	// group's total response time T_i.
	TCore, TMem, TCPU, TIO, TStall, T units.Seconds
	// Energy components per node (Table 2).
	ECPUAct, ECPUStall, EMem, EIO, EIdle units.Joules
	// BusyPower is the average per-node power while executing,
	// (E_total per node)/T.
	BusyPower units.Watts
}

// EnergyPerNode sums the per-node components.
func (g GroupResult) EnergyPerNode() units.Joules {
	return g.ECPUAct + g.ECPUStall + g.EMem + g.EIO + g.EIdle
}

// Result is the model outcome for a configuration running one job.
type Result struct {
	Config   cluster.Config
	Workload string
	// Time is the job's execution time T_P = max_i T_i.
	Time units.Seconds
	// Energy is the job's total energy E_P across all nodes.
	Energy units.Joules
	// IdlePower is the configuration's total idle power.
	IdlePower units.Watts
	// BusyPower is the cluster-average power while executing, E_P/T_P.
	BusyPower units.Watts
	// Throughput is work units per second while executing.
	Throughput units.PerSecond
	// Groups holds the per-type breakdown.
	Groups []GroupResult
}

// unitTime returns the per-work-unit component times for one node of the
// group: core, memory, CPU (overlap), I/O and total.
func unitTime(g cluster.Group, d workload.Demand, ioRate units.PerSecond, opt Options) (core, mem, cpu, io, total units.Seconds) {
	f := g.Freq
	coreCapacity := units.Hertz(float64(f) * float64(g.Cores))
	core = d.CoreCycles.Time(coreCapacity)
	if opt.MemFrequencyInvariant {
		mem = d.MemCycles.Time(g.Type.FMax())
	} else {
		mem = d.MemCycles.Time(f)
	}
	cpu = core
	if mem > cpu {
		cpu = mem
	}
	io = d.IOBytes.TransferTime(g.Type.NICBandwidth)
	if d.IOReqs > 0 && ioRate > 0 {
		wait := units.Seconds(d.IOReqs / float64(ioRate))
		if wait > io {
			io = wait
		}
	}
	total = cpu
	if io > total {
		total = io
	}
	return core, mem, cpu, io, total
}

// Evaluate runs the time-energy model for one job of profile p on
// configuration cfg.
//
// Work is split across node types by rate matching (Section II-D: "the
// amount of workload executed by nodes of different types is determined
// by matching the execution rates among the different types of nodes,
// such that all nodes finish executing at the same time"). Because every
// time component is linear in the assigned units, T_i = u_i * tau_i with
// tau_i the per-unit time, and assigning u_i proportional to n_i/tau_i
// makes all T_i equal.
func Evaluate(cfg cluster.Config, p *workload.Profile, opt Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}

	type groupCalc struct {
		g         cluster.Group
		d         workload.Demand
		unitCore  units.Seconds
		unitMem   units.Seconds
		unitCPU   units.Seconds
		unitIO    units.Seconds
		unitTotal units.Seconds
		nodeRate  float64 // units per second per node
		groupRate float64
	}
	// The per-group scratch stays on the stack for real catalogs, as in
	// evaluateCalcs.
	var buf [maxStackGroups]groupCalc
	calcs := buf[:0]
	if len(cfg.Groups) > maxStackGroups {
		calcs = make([]groupCalc, 0, len(cfg.Groups))
	}
	totalRate := 0.0
	for _, g := range cfg.Groups {
		d, err := p.Demand(g.Type.Name)
		if err != nil {
			return Result{}, fmt.Errorf("model: %w", err)
		}
		core, mem, cpu, io, total := unitTime(g, d, p.IORate, opt)
		gc := groupCalc{g: g, d: d, unitCore: core, unitMem: mem, unitCPU: cpu, unitIO: io, unitTotal: total}
		if total.IsFinite() && total > 0 {
			gc.nodeRate = 1 / float64(total)
			gc.groupRate = gc.nodeRate * float64(g.Count)
		}
		totalRate += gc.groupRate
		calcs = append(calcs, gc)
	}
	if totalRate <= 0 || math.IsNaN(totalRate) {
		return Result{}, errors.New("model: configuration has zero execution rate for this workload")
	}

	res := Result{Config: cfg, Workload: p.Name, IdlePower: cfg.IdlePower(),
		Groups: make([]GroupResult, 0, len(calcs))}
	var totalEnergy units.Joules
	var tp units.Seconds
	for _, gc := range calcs {
		share := gc.groupRate / totalRate
		unitsGroup := p.JobUnits * share
		var gr GroupResult
		gr.Group = gc.g
		gr.Units = unitsGroup
		if gc.g.Count > 0 {
			gr.UnitsPerNode = unitsGroup / float64(gc.g.Count)
		}
		gr.TCore = units.Seconds(float64(gc.unitCore) * gr.UnitsPerNode)
		gr.TMem = units.Seconds(float64(gc.unitMem) * gr.UnitsPerNode)
		gr.TCPU = units.Seconds(float64(gc.unitCPU) * gr.UnitsPerNode)
		gr.TIO = units.Seconds(float64(gc.unitIO) * gr.UnitsPerNode)
		gr.T = units.Seconds(float64(gc.unitTotal) * gr.UnitsPerNode)
		if gr.TMem > gr.TCore {
			gr.TStall = gr.TMem - gr.TCore
		}

		pw := gc.g.Type.PowerAt(gc.g.Freq)
		c := float64(gc.g.Cores)
		gr.ECPUAct = units.Joules(gc.d.Intensity * float64(pw.CPUActPerCore) * c * float64(gr.TCore))
		gr.ECPUStall = units.Joules(float64(pw.CPUStallPerCore) * c * float64(gr.TStall))
		gr.EMem = pw.Mem.Energy(gr.TMem)
		gr.EIO = pw.Net.Energy(gr.TIO)
		gr.EIdle = pw.Idle.Energy(gr.T)

		totalEnergy += units.Joules(float64(gr.EnergyPerNode()) * float64(gc.g.Count))
		if gr.T > tp {
			tp = gr.T
		}
		if gr.T > 0 {
			gr.BusyPower = gr.EnergyPerNode().Over(gr.T)
		}
		res.Groups = append(res.Groups, gr)
	}

	// Idle groups (zero assigned work) still burn idle power for the
	// duration of the job; account for it now that T_P is known.
	for i := range res.Groups {
		gr := &res.Groups[i]
		if gr.T < tp {
			extra := units.Seconds(float64(tp) - float64(gr.T))
			add := gr.Group.Type.Power.Idle.Energy(extra)
			gr.EIdle += add
			totalEnergy += units.Joules(float64(add) * float64(gr.Group.Count))
			gr.T = tp
			gr.BusyPower = gr.EnergyPerNode().Over(gr.T)
		}
	}

	res.Time = tp
	res.Energy = totalEnergy
	if tp > 0 {
		res.BusyPower = totalEnergy.Over(tp)
		res.Throughput = units.PerSecond(p.JobUnits / float64(tp))
	}
	return res, nil
}

// PPR returns the performance-to-power ratio at full utilization:
// throughput per watt of busy power (Section II-B).
func (r Result) PPR() float64 {
	if r.BusyPower <= 0 {
		return 0
	}
	return float64(r.Throughput) / float64(r.BusyPower)
}

// EDP returns the energy-delay product E_P * T_P in joule-seconds — the
// classic scalarization of the paper's time-energy trade-off. Lower is
// better; unlike energy alone it penalizes configurations that save
// joules by running long.
func (r Result) EDP() float64 {
	return float64(r.Energy) * float64(r.Time)
}
