package pareto

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file implements the memoized closed-form sweep engine behind
// FrontierSweep. Instead of re-running the full Table 2 model —
// validation, demand-map lookups, per-group slice allocation — once
// per configuration, it:
//
//  1. memoizes a model.UnitCalc per distinct (type, cores, freq)
//     operating point (tens of entries for tens of thousands of
//     configurations), snapshotted once per sweep into an immutable,
//     lock-free view,
//  2. flattens the per-type choice space into columnar (structure-of-
//     arrays) slices — count, node rate, energy-per-unit, support bit,
//     unit-calc pointer — so the inner DFS loop walks cache-linear
//     arrays instead of chasing per-choice structs,
//  3. evaluates each configuration allocation-free through
//     model.EvaluateCalcs, whose scalars are bitwise-identical to
//     model.Evaluate (same expression shapes and accumulation order),
//  4. tests every evaluated point against a running Pareto staircase
//     that is updated on every admission (time strictly ascending,
//     energy strictly descending): a binary search rejects a covered
//     point, and an admitted point evicts the contiguous run of
//     staircase points it strictly dominates,
//  5. prunes whole enumeration subtrees with monotone lower bounds:
//     fixing a prefix of per-type choices bounds the best reachable
//     time by JobUnits/(rate_prefix + max remaining rate) and the best
//     reachable energy by JobUnits * min EnergyPerUnit — if a staircase
//     point is at least as good on both axes, no completion of the
//     prefix can ever be accepted by Frontier, so the subtree is
//     skipped without evaluation (counted in pareto.configs_pruned).
//
// The walk is one depth-first pass on the caller's goroutine.
// Parallelism lives above it — across requests, batch items and
// workloads — where it pays; partitioning one sweep across workers
// measured slower than the serial walk even on two real cores.
//
// Exactness argument. A point is dropped only when a point retained at
// that moment weakly dominates it: q.Time <= p.Time and q.Energy <=
// p.Energy, with q enumerated first (admission, which also rejects
// exact duplicates so the first representative wins), or q strictly
// better on one axis (eviction), or the subtree bounds guarantee such
// a q for every completion (pruning, with a relative slack covering
// the model's floating-point rounding). Domination is transitive, so
// the final staircase weakly dominates every dropped point. In
// Frontier's scan, acceptance of p would require p.Energy <
// bestEnergy*(1-1e-9) <= q.Energy — a contradiction — and rejected
// points never mutate the scan state (bestEnergy, lastTime), so
// removing them leaves the output unchanged: the result equals
// Frontier over every evaluated point, which (by bitwise-equal
// scalars) equals the reference path's frontier point for point.

// boundSlack is the relative safety margin applied to the pruning
// lower bounds. The bounds are exact in real arithmetic; the evaluated
// scalars carry a few tens of ulps of rounding (~1e-14 relative), so a
// 1e-9 haircut keeps the bounds strictly conservative with eight
// orders of magnitude to spare.
const boundSlack = 1e-9

// cancelCheckEvery is how many accounted configurations pass between
// polls of the cancellation channel: a channel select per
// configuration would cost more than the evaluation itself.
const cancelCheckEvery = 8192

// grow returns s resized to n elements, reusing its backing array when
// capacity allows. Contents are unspecified; callers overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// spaceSoA is the columnar (structure-of-arrays) form of the
// configuration space: every per-type choice flattened into parallel
// slices, segmented by typeOff. It is built once per sweep and read
// only by the walk; together with the model.Snapshot it embeds, it
// keeps the hot path free of the table's RWMutex.
type spaceSoA struct {
	snap     *model.Snapshot
	jobUnits float64
	nTypes   int

	// byRank walks type indices in node-type-name order — the canonical
	// cluster.NewConfig group order the bitwise-exact evaluator
	// requires.
	byRank []int32
	// typeOff[i]..typeOff[i+1] is type i's segment of the columns.
	typeOff []int32
	count   []int32
	rate    []float64 // NodeRate * Count, the choice's rate contribution
	epu     []float64 // busy energy-per-unit; +Inf when unsupported
	sup     []bool
	calcs   []*model.UnitCalc
	// groups keeps the AoS form for Config materialization and Filter.
	groups []cluster.Group

	// maxRateSuffix[i] bounds the execution rate types i.. can add;
	// minEPUSuffix[i] is the lowest busy energy-per-unit any of their
	// choices offers; suffixSpace[i] counts the completions of a
	// non-empty prefix (product of 1+segment length over types i..).
	maxRateSuffix []float64
	minEPUSuffix  []float64
	suffixSpace   []int64
}

func (sp *spaceSoA) build(limits []cluster.Limit, table *model.Table) {
	n := len(limits)
	sp.nTypes = n
	sp.snap = table.Snapshot(limits)
	sp.jobUnits = sp.snap.JobUnits()

	sp.typeOff = grow(sp.typeOff, n+1)
	sp.count = sp.count[:0]
	sp.rate = sp.rate[:0]
	sp.epu = sp.epu[:0]
	sp.sup = sp.sup[:0]
	sp.calcs = sp.calcs[:0]
	sp.groups = sp.groups[:0]
	for i, l := range limits {
		sp.typeOff[i] = int32(len(sp.groups))
		for _, g := range l.Choices() {
			uc, ok := sp.snap.Calc(g)
			if !ok {
				// Snapshot pre-warmed every operating point of limits;
				// Choices only expands node counts over the same points.
				panic("pareto: choice missing from table snapshot")
			}
			sp.groups = append(sp.groups, g)
			sp.calcs = append(sp.calcs, uc)
			sp.count = append(sp.count, int32(g.Count))
			// Same expression as the reference prefix accumulation, so
			// the precomputed column is bitwise-identical to computing
			// it at the tree node.
			sp.rate = append(sp.rate, uc.NodeRate*float64(g.Count))
			sp.sup = append(sp.sup, uc.Supported)
			if uc.Supported {
				sp.epu = append(sp.epu, uc.EnergyPerUnit)
			} else {
				// +Inf keeps the min-EPU update branch-free: an
				// unsupported choice can never lower the bound.
				sp.epu = append(sp.epu, math.Inf(1))
			}
		}
	}
	sp.typeOff[n] = int32(len(sp.groups))

	sp.byRank = grow(sp.byRank, n)
	for i := range sp.byRank {
		sp.byRank[i] = int32(i)
	}
	sort.SliceStable(sp.byRank, func(a, b int) bool {
		return limits[sp.byRank[a]].Type.Name < limits[sp.byRank[b]].Type.Name
	})

	sp.maxRateSuffix = grow(sp.maxRateSuffix, n+1)
	sp.minEPUSuffix = grow(sp.minEPUSuffix, n+1)
	sp.suffixSpace = grow(sp.suffixSpace, n+1)
	sp.maxRateSuffix[n] = 0
	sp.minEPUSuffix[n] = math.Inf(1)
	sp.suffixSpace[n] = 1
	for i := n - 1; i >= 0; i-- {
		maxRate := 0.0
		minEPU := math.Inf(1)
		for j := sp.typeOff[i]; j < sp.typeOff[i+1]; j++ {
			if !sp.sup[j] {
				continue
			}
			if r := sp.rate[j]; r > maxRate {
				maxRate = r
			}
			if e := sp.epu[j]; e < minEPU {
				minEPU = e
			}
		}
		sp.maxRateSuffix[i] = sp.maxRateSuffix[i+1] + maxRate
		sp.minEPUSuffix[i] = sp.minEPUSuffix[i+1]
		if minEPU < sp.minEPUSuffix[i] {
			sp.minEPUSuffix[i] = minEPU
		}
		sp.suffixSpace[i] = sp.suffixSpace[i+1] * int64(1+int(sp.typeOff[i+1]-sp.typeOff[i]))
	}
}

// fastPoint is a staircase point before materialization: coordinates
// plus an index into the engine's flat selection buffer. Configs and
// Results are built only for the final frontier points.
type fastPoint struct {
	t   units.Seconds
	e   units.Joules
	sel int32
}

// fastEngine is one sweep's depth-first walk over a spaceSoA.
type fastEngine struct {
	sp      *spaceSoA
	filter  func(cluster.Config) bool
	noPrune bool
	pr      *telemetry.Progress

	// cancel is the sweep context's Done channel (nil when the sweep is
	// not cancellable); stop latches once it fires.
	cancel     <-chan struct{}
	stop       bool
	sinceCheck int64

	// sel[i] is the DFS's current column index for type i; -1 = skip.
	sel    []int32
	gcsBuf []model.GroupCalc

	// front is the running Pareto staircase: time strictly ascending,
	// energy strictly descending. sels holds every admitted point's
	// selection block (stride nTypes, -1 = skip); evicted points leave
	// their blocks behind — admissions are a tiny fraction of the
	// space, so the slack stays in the kilobytes.
	front []fastPoint
	sels  []int32

	nEvaluated int64
	nSkipped   int64
	nFiltered  int64
	nPruned    int64
}

func (e *fastEngine) reset(sp *spaceSoA, sw *SweepOptions, cancel <-chan struct{}) {
	e.sp = sp
	e.filter = sw.Filter
	e.noPrune = sw.NoPrune
	e.pr = sw.Progress
	e.cancel = cancel
	e.stop = false
	e.sinceCheck = 0
	e.sel = grow(e.sel, sp.nTypes)
	for i := range e.sel {
		e.sel[i] = -1
	}
	if cap(e.gcsBuf) < sp.nTypes {
		e.gcsBuf = make([]model.GroupCalc, 0, sp.nTypes)
	}
	e.front = e.front[:0]
	e.sels = e.sels[:0]
	e.nEvaluated, e.nSkipped, e.nFiltered, e.nPruned = 0, 0, 0, 0
}

// release drops references into caller-owned state so pooled scratch
// does not pin filters, progress reporters or the space across sweeps.
func (e *fastEngine) release() {
	e.sp = nil
	e.filter = nil
	e.pr = nil
	e.cancel = nil
}

// account ticks progress for n newly accounted configurations and
// batches the cancellation poll over them.
func (e *fastEngine) account(n int64) {
	e.pr.Add(n)
	if e.cancel == nil {
		return
	}
	e.sinceCheck += n
	if e.sinceCheck < cancelCheckEvery {
		return
	}
	e.sinceCheck = 0
	select {
	case <-e.cancel:
		e.stop = true
	default:
	}
}

// covered reports whether some staircase point is at least as good as
// (t, en) on both axes: the last point with time <= t has the lowest
// energy among all such points.
func (e *fastEngine) covered(t, en float64) bool {
	f := e.front
	lo, hi := 0, len(f)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if float64(f[m].t) <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo > 0 && float64(f[lo-1].e) <= en
}

// admit places (t, en), with the DFS's current selection, on the
// staircase unless a staircase point covers it. From k, the first
// index with time >= t, the new point evicts the contiguous run whose
// energy is >= en — each strictly dominated by it, since the point
// before k (and a same-time point at k) has energy > en when the new
// point is uncovered.
func (e *fastEngine) admit(t units.Seconds, en units.Joules) {
	if e.covered(float64(t), float64(en)) {
		return
	}
	f := e.front
	lo, hi := 0, len(f)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f[m].t < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	k, end := lo, lo
	for end < len(f) && f[end].e >= en {
		end++
	}
	if end == k {
		f = append(f, fastPoint{})
		copy(f[k+1:], f[k:])
	} else {
		f = append(f[:k+1], f[end:]...)
	}
	f[k] = fastPoint{t: t, e: en, sel: int32(len(e.sels) / e.sp.nTypes)}
	e.sels = append(e.sels, e.sel...)
	e.front = f
}

// pruneBound reports whether every completion of the current prefix
// (types before i chosen, types i.. free) is covered by the staircase,
// using the monotone lower bounds on time and energy.
func (e *fastEngine) pruneBound(i int, partialRate, partialMinEPU float64) bool {
	ub := partialRate + e.sp.maxRateSuffix[i]
	if !(ub > 0) {
		return false
	}
	tLB := e.sp.jobUnits / ub * (1 - boundSlack)
	mEPU := partialMinEPU
	if s := e.sp.minEPUSuffix[i]; s < mEPU {
		mEPU = s
	}
	if math.IsInf(mEPU, 1) {
		return false
	}
	eLB := e.sp.jobUnits * mEPU * (1 - boundSlack)
	return e.covered(tLB, eLB)
}

func (e *fastEngine) rec(i, depth int, partialRate, partialMinEPU float64) {
	if e.stop {
		return
	}
	sp := e.sp
	if i == sp.nTypes {
		if depth > 0 {
			e.leaf()
		}
		return
	}
	if !e.noPrune && e.pruneBound(i, partialRate, partialMinEPU) {
		n := sp.suffixSpace[i]
		if depth == 0 {
			n-- // the all-skip completion is not a configuration
		}
		if n > 0 {
			e.nPruned += n
			e.account(n)
		}
		return
	}
	// Skip this type, as Enumerate does first.
	e.rec(i+1, depth, partialRate, partialMinEPU)
	for j := sp.typeOff[i]; j < sp.typeOff[i+1]; j++ {
		if e.stop {
			return
		}
		if !sp.sup[j] && e.filter == nil {
			// Every completion fails evaluation on the missing demand
			// vector; account the whole subtree as skipped. (With a
			// Filter installed the walk must continue so filtered
			// configurations are counted as filtered, as on the
			// reference path.)
			n := sp.suffixSpace[i+1]
			e.nSkipped += n
			e.account(n)
			continue
		}
		e.sel[i] = j
		rate := partialRate + sp.rate[j]
		mEPU := partialMinEPU
		if v := sp.epu[j]; v < mEPU {
			mEPU = v
		}
		e.rec(i+1, depth+1, rate, mEPU)
		e.sel[i] = -1
	}
}

// configOf materializes a selection block as a canonical Config
// (groups in node-type-name order).
func (e *fastEngine) configOf(sel []int32) cluster.Config {
	sp := e.sp
	groups := make([]cluster.Group, 0, sp.nTypes)
	for _, ti := range sp.byRank {
		if j := sel[ti]; j >= 0 {
			groups = append(groups, sp.groups[j])
		}
	}
	return cluster.Config{Groups: groups}
}

func (e *fastEngine) leaf() {
	sp := e.sp
	gcs := e.gcsBuf[:0]
	for _, ti := range sp.byRank {
		if j := e.sel[ti]; j >= 0 {
			gcs = append(gcs, model.GroupCalc{Calc: sp.calcs[j], Count: int(sp.count[j])})
		}
	}
	// Only the Filter path pays a Config allocation per leaf; filters
	// may retain the Config, as on the reference path.
	if e.filter != nil && !e.filter(e.configOf(e.sel)) {
		e.nFiltered++
		e.account(1)
		return
	}
	fr, ok := sp.snap.EvaluateCalcs(gcs)
	if !ok {
		e.nSkipped++
		e.account(1)
		return
	}
	e.nEvaluated++
	e.account(1)
	e.admit(fr.Time, fr.Energy)
}

// frontier applies Frontier's admission rule to the staircase — the
// first point, then any point improving energy by more than the 1e-9
// noise margin — materializing Configs and Results only for the
// points that make the cut. The staircase holds one point per time
// class, each its class's first lowest-energy representative, so no
// sort is needed.
func (e *fastEngine) frontier(table *model.Table) []Point {
	var out []Point
	bestEnergy := units.Joules(0)
	for _, p := range e.front {
		if len(out) > 0 && !(float64(p.e) < float64(bestEnergy)*(1-1e-9)) {
			continue
		}
		base := int(p.sel) * e.sp.nTypes
		cfg := e.configOf(e.sels[base : base+e.sp.nTypes])
		pt := Point{Config: cfg, Time: p.t, Energy: p.e}
		if res, err := table.Materialize(cfg); err == nil {
			pt.Result = res
		}
		out = append(out, pt)
		bestEnergy = p.e
	}
	return out
}

// sweepScratch is the pooled per-sweep state. Steady-state sweeps
// reuse its buffers, keeping allocations near zero.
type sweepScratch struct {
	sp  spaceSoA
	eng fastEngine
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// frontierSweepFast is the memoized closed-form sweep behind
// FrontierSweep: identical results to the reference path, orders of
// magnitude faster (see the exactness argument at the top of this
// file).
func frontierSweepFast(limits []cluster.Limit, wl *workload.Profile, opt model.Options, sw SweepOptions) ([]Point, error) {
	span := telemetry.StartSpan("pareto.frontier_sweep").
		Arg("workload", wl.Name).Arg("engine", "fast")
	defer span.End()
	defer sw.Request.Phase("pareto.frontier_sweep")()
	if err := cluster.ValidateLimits(limits); err != nil {
		return nil, err
	}
	reg := telemetry.Global()
	evaluated := reg.Counter("pareto.configs_evaluated")
	skipped := reg.Counter("pareto.configs_skipped")
	filtered := reg.Counter("pareto.configs_filtered")
	pruned := reg.Counter("pareto.configs_pruned")

	if wl.Validate() != nil {
		// The reference path skips every configuration when the profile
		// is invalid (model.Evaluate fails each one); mirror its
		// accounting without walking the space one leaf at a time.
		n := int64(cluster.SpaceSize(limits))
		if n > 0 {
			skipped.Add(uint64(n))
			sw.Progress.Add(n)
		}
		if sw.Stats != nil {
			*sw.Stats = SweepStats{Skipped: n}
		}
		sw.Progress.Done()
		return nil, nil
	}

	table := sw.Table
	if table == nil {
		table = model.NewTable(wl, opt)
	} else if !table.Matches(wl, opt) {
		return nil, fmt.Errorf("pareto: SweepOptions.Table was built for a different workload or options")
	}
	ctx := sw.Context
	if ctx == nil {
		ctx = context.Background()
	}

	sc := sweepScratchPool.Get().(*sweepScratch)
	defer sweepScratchPool.Put(sc)
	defer func() { sc.sp.snap = nil }()

	sp := &sc.sp
	sp.build(limits, table)
	if sp.nTypes == 0 {
		if sw.Stats != nil {
			*sw.Stats = SweepStats{}
		}
		sw.Progress.Done()
		return nil, nil
	}

	e := &sc.eng
	e.reset(sp, &sw, ctx.Done())
	defer e.release()
	e.rec(0, 0, 0, math.Inf(1))
	// A walk stopped by cancellation is incomplete; one cancelled after
	// its last poll fails too, so a cancelled context always yields its
	// error.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	st := SweepStats{Evaluated: e.nEvaluated, Skipped: e.nSkipped, Filtered: e.nFiltered, Pruned: e.nPruned}
	out := e.frontier(table)

	evaluated.Add(uint64(st.Evaluated))
	skipped.Add(uint64(st.Skipped))
	filtered.Add(uint64(st.Filtered))
	pruned.Add(uint64(st.Pruned))
	sw.Request.Add(telemetry.AttrConfigsEvaluated, st.Evaluated)
	sw.Request.Add(telemetry.AttrConfigsFiltered, st.Filtered)
	sw.Request.Add(telemetry.AttrConfigsPruned, st.Pruned)
	if sw.Stats != nil {
		*sw.Stats = st
	}
	span.Arg("evaluated", st.Evaluated).Arg("pruned", st.Pruned)
	sw.Progress.Done()
	return out, nil
}
