package model

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/units"
	"repro/internal/workload"
)

// The Table 2 model is linear in assigned work: every per-node time
// component is (per-unit time) x (units per node), and every energy
// component is (power coefficient) x (component time). The per-unit
// times and power coefficients depend only on the operating point
// (node type, active cores, frequency) and the workload's demand
// vector — never on the node count or on which other groups share the
// cluster. A sweep over tens of thousands of configurations therefore
// touches only tens of distinct operating points, and everything
// per-configuration reduces to combining memoized UnitCalc entries
// through the rate-matching closed form u_i ∝ n_i/τ_i.
//
// UnitCalc holds the memoized per-operating-point quantities. The
// Coef* fields are pre-associated exactly as Evaluate's expressions
// ((Intensity*CPUActPerCore)*cores, etc.) so the fast path reproduces
// the reference arithmetic rounding-for-rounding; see EvaluateCalcs.
type UnitCalc struct {
	Type  *hardware.NodeType
	Cores int
	Freq  units.Hertz

	// Supported is false when the workload has no demand vector for the
	// node type; Evaluate fails such configurations and the fast path
	// reports them the same way.
	Supported bool

	// Per-unit component times for one node (τ in the docs): core
	// execution, memory, overlapped CPU response, network I/O, total.
	UnitCore, UnitMem, UnitCPU, UnitIO, UnitTotal units.Seconds

	// NodeRate is 1/UnitTotal (work units per second per node), zero
	// when the unit time is non-finite or non-positive.
	NodeRate float64

	// CoefAct = (Intensity * CPUActPerCore(f)) * cores and
	// CoefStall = CPUStallPerCore(f) * cores, matching the association
	// order of Evaluate's energy expressions.
	CoefAct, CoefStall float64

	// MemW, NetW and IdleW are the (frequency-independent) memory, NIC
	// and idle power draws of the whole node.
	MemW, NetW, IdleW units.Watts

	// EnergyPerUnit is the per-node busy energy per assigned work unit
	// in joules: in real arithmetic exactly what Evaluate charges a node
	// per unit (core, stall, memory, NIC and idle energy over the unit
	// time), computed free-form rather than bitwise against Evaluate, so
	// it rounds differently within a few ulps. The frontier sweep has
	// two readers: its per-type reduction ranks operating points by it,
	// and its certificate bounds a configuration's energy from below by
	// (JobUnits/R) * sum(rate * EnergyPerUnit) to skip the model where
	// the running staircase already covers that bound. Both rely on the
	// rounding staying far below their 1e-9 margin; it never feeds a
	// reported result.
	EnergyPerUnit float64
}

type tableKey struct {
	t     *hardware.NodeType
	cores int
	freq  units.Hertz
}

// Table memoizes UnitCalc entries for one (workload, Options) pair,
// and keeps one slot for the last reduced configuration space a
// frontier sweep built on it (Space, SetSpace), so repeated sweeps of
// one space skip rebuilding it. It is safe for concurrent use; the
// /v1/frontier handler shares one table per workload across concurrent
// requests.
type Table struct {
	wl       *workload.Profile
	opt      Options
	jobUnits float64
	wlValid  bool

	mu    sync.RWMutex
	calcs map[tableKey]*UnitCalc

	space atomic.Value
}

// NewTable builds an empty table for the workload. An invalid profile
// yields a table on which every evaluation reports ok=false, mirroring
// Evaluate's per-configuration validation error.
func NewTable(wl *workload.Profile, opt Options) *Table {
	return &Table{
		wl:       wl,
		opt:      opt,
		jobUnits: wl.JobUnits,
		wlValid:  wl.Validate() == nil,
		calcs:    make(map[tableKey]*UnitCalc),
	}
}

// Matches reports whether the table was built for exactly this
// (workload, options) pair — the precondition for reusing a
// caller-owned table across sweeps (pareto.SweepOptions.Table).
// Profile identity is by pointer: a table memoizes demand-vector
// derived quantities, so "same name" is not enough.
func (t *Table) Matches(wl *workload.Profile, opt Options) bool {
	return t.wl == wl && t.opt == opt
}

// JobUnits is the job size the table's evaluations divide among the
// groups.
func (t *Table) JobUnits() float64 { return t.jobUnits }

// Snapshot warms the table with every (type, cores, freq) operating
// point reachable under limits, so later sweeps find each UnitCalc
// memoized. Node counts never participate in the memo key, so warming
// iterates each type's distinct (cores, freq) pairs, not the full
// choice space. The repository benchmark's set-up times table
// construction through it.
func (t *Table) Snapshot(limits []cluster.Limit) {
	for _, l := range limits {
		for _, g := range l.OperatingPoints() {
			t.Calc(g)
		}
	}
}

// Space returns the value the last SetSpace stored, or nil. The value
// is opaque here: the frontier sweep (internal/pareto) keeps its
// reduced space there, an immutable value holding its own lookup key,
// pointers into this table's memo and nothing of a request.
func (t *Table) Space() any { return t.space.Load() }

// SetSpace replaces the slot's value atomically: a reader holds either
// the old value or v, never a mix. Every value stored in one table must
// have the same concrete type, and v must not be nil.
func (t *Table) SetSpace(v any) { t.space.Store(v) }

// Calc returns the memoized UnitCalc for the group's operating point,
// computing it on first use. The group must be valid (enumeration
// pre-validates limits); only (Type, Cores, Freq) participate in the
// key — Count never affects per-unit quantities.
func (t *Table) Calc(g cluster.Group) *UnitCalc {
	k := tableKey{t: g.Type, cores: g.Cores, freq: g.Freq}
	t.mu.RLock()
	uc := t.calcs[k]
	t.mu.RUnlock()
	if uc != nil {
		return uc
	}
	uc = t.build(g)
	t.mu.Lock()
	if prev := t.calcs[k]; prev != nil {
		uc = prev
	} else {
		t.calcs[k] = uc
	}
	t.mu.Unlock()
	return uc
}

func (t *Table) build(g cluster.Group) *UnitCalc {
	uc := &UnitCalc{Type: g.Type, Cores: g.Cores, Freq: g.Freq}
	if !t.wlValid {
		return uc
	}
	d, err := t.wl.Demand(g.Type.Name)
	if err != nil {
		return uc
	}
	core, mem, cpu, io, total := unitTime(g, d, t.wl.IORate, t.opt)
	uc.Supported = true
	uc.UnitCore, uc.UnitMem, uc.UnitCPU, uc.UnitIO, uc.UnitTotal = core, mem, cpu, io, total
	if total.IsFinite() && total > 0 {
		uc.NodeRate = 1 / float64(total)
	}
	pw := g.Type.PowerAt(g.Freq)
	c := float64(g.Cores)
	uc.CoefAct = d.Intensity * float64(pw.CPUActPerCore) * c
	uc.CoefStall = float64(pw.CPUStallPerCore) * c
	uc.MemW, uc.NetW, uc.IdleW = pw.Mem, pw.Net, pw.Idle
	stall := 0.0
	if mem > core {
		stall = float64(mem) - float64(core)
	}
	uc.EnergyPerUnit = uc.CoefAct*float64(core) + uc.CoefStall*stall +
		float64(pw.Mem)*float64(mem) + float64(pw.Net)*float64(io) +
		float64(pw.Idle)*float64(total)
	return uc
}

// FastResult is the scalar outcome of the allocation-free fast path:
// exactly the (Time, Energy, BusyPower, IdlePower) fields of Result,
// bitwise-equal to Evaluate's, without the per-group breakdown.
type FastResult struct {
	Time      units.Seconds
	Energy    units.Joules
	BusyPower units.Watts
	IdlePower units.Watts
}

// GroupCalc pairs a memoized operating point with a node count — the
// sweep engine's pre-resolved form of cluster.Group.
type GroupCalc struct {
	Calc  *UnitCalc
	Count int
}

// maxStackGroups bounds the group count evaluated without heap
// allocation; real catalogs have at most a handful of node types.
const maxStackGroups = 16

// EvaluateCalcs runs the model allocation-free for one configuration
// given as groups pre-resolved through the table (Calc), returning
// ok=false exactly when Evaluate would fail: an unsupported entry
// (missing demand vector, invalid workload) or no positive execution
// rate. The entries MUST be ordered by node-type name — the canonical
// cluster.NewConfig order — with Count >= 1 each, and no per-config
// Validate runs here.
//
// It mirrors Evaluate statement for statement — the same expression
// shapes, explicit conversions and accumulation order — so that every
// intermediate rounding matches and the returned scalars are
// bitwise-equal to the reference, not merely close. That exactness is
// what lets the sweep engine's frontier (and the goldens derived from
// it) coincide with the reference path down to the last bit.
func (t *Table) EvaluateCalcs(gcs []GroupCalc) (FastResult, bool) {
	var rateBuf, tBuf [maxStackGroups]float64
	groupRate := rateBuf[:0]
	groupT := tBuf[:0]
	if len(gcs) > maxStackGroups {
		groupRate = make([]float64, 0, len(gcs))
		groupT = make([]float64, 0, len(gcs))
	}

	totalRate := 0.0
	for _, gc := range gcs {
		if !gc.Calc.Supported {
			return FastResult{}, false
		}
		rate := gc.Calc.NodeRate * float64(gc.Count)
		totalRate += rate
		groupRate = append(groupRate, rate)
	}
	if totalRate <= 0 || math.IsNaN(totalRate) {
		return FastResult{}, false
	}

	var res FastResult
	var totalEnergy units.Joules
	var tp units.Seconds
	for i, gc := range gcs {
		uc := gc.Calc
		share := groupRate[i] / totalRate
		unitsGroup := t.jobUnits * share
		upn := unitsGroup / float64(gc.Count)
		tCore := units.Seconds(float64(uc.UnitCore) * upn)
		tMem := units.Seconds(float64(uc.UnitMem) * upn)
		tIO := units.Seconds(float64(uc.UnitIO) * upn)
		tT := units.Seconds(float64(uc.UnitTotal) * upn)
		var tStall units.Seconds
		if tMem > tCore {
			tStall = tMem - tCore
		}

		eAct := units.Joules(uc.CoefAct * float64(tCore))
		eStall := units.Joules(uc.CoefStall * float64(tStall))
		eMem := uc.MemW.Energy(tMem)
		eIO := uc.NetW.Energy(tIO)
		eIdle := uc.IdleW.Energy(tT)
		perNode := eAct + eStall + eMem + eIO + eIdle

		totalEnergy += units.Joules(float64(perNode) * float64(gc.Count))
		if tT > tp {
			tp = tT
		}
		groupT = append(groupT, float64(tT))
		res.IdlePower += units.Watts(float64(uc.IdleW) * float64(gc.Count))
	}

	// Idle-extension second pass, as in Evaluate: groups finishing early
	// burn idle power until T_P.
	for i, gc := range gcs {
		if units.Seconds(groupT[i]) < tp {
			extra := units.Seconds(float64(tp) - groupT[i])
			add := gc.Calc.IdleW.Energy(extra)
			totalEnergy += units.Joules(float64(add) * float64(gc.Count))
		}
	}

	res.Time = tp
	res.Energy = totalEnergy
	if tp > 0 {
		res.BusyPower = totalEnergy.Over(tp)
	}
	return res, true
}

// Materialize runs the full reference model for one configuration,
// producing the per-group breakdown. The sweep engine calls it only
// for frontier survivors.
func (t *Table) Materialize(cfg cluster.Config) (Result, error) {
	return Evaluate(cfg, t.wl, t.opt)
}
