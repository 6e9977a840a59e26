package pareto

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/hardware"
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
//     configurations), resolved into the columns below when the space
//     is built, so the walk never touches the table's map or lock,
//  2. reduces each node type's (count, cores, freq) choices to its
//     dominance staircase (below) and flattens the survivors into
//     columnar (structure-of-arrays) slices — count, rate, budget
//     shares, unit-calc pointer — so the walk covers only the product of
//     the staircases (about a thousand of the footnote-4 space's
//     36,380 configurations) through cache-linear arrays; a shared
//     table keeps the last space built on it, so repeated sweeps of
//     one space build and reduce it once (spaceFor),
//  3. evaluates each walked configuration allocation-free through
//     model.EvaluateCalcs, whose scalars are bitwise-identical to
//     model.Evaluate (same expression shapes and accumulation order),
//  4. tests every evaluated point against a running Pareto staircase
//     that is updated on every admission (time strictly ascending,
//     energy strictly descending): a binary search rejects a covered
//     point, and an admitted point evicts the contiguous run of
//     staircase points it strictly dominates,
//  5. counts the rest of the space in closed form (tally): how many
//     configurations a walk of all of them would have filtered,
//     skipped or evaluated, so the accounting still partitions
//     cluster.SpaceSize and the evaluated ones the walk left out are
//     reported as pruned.
//
// The walk is one depth-first pass on the caller's goroutine.
// Parallelism lives above it — across requests, batch items and
// workloads — where it pays; partitioning one sweep across workers
// measured slower than the serial walk even on two real cores.
//
// Why the per-type reduction is exact. The model's rate-matched split
// gives every group the same finish time, so a configuration has
// T = J/R and E = J*P/R, where R and P sum, over its groups, the rate
// (NodeRate * count) and p = rate * EnergyPerUnit. Choice b of a type
// dominates choice a of the same type when
//
//   - rate_b - rate_a > domSlack*Rmax, or b has a's node count and a
//     bitwise-equal UnitTotal (then every configuration's computed T is
//     bitwise the same with a or b: NICs cap many operating points at
//     one rate, and without this class those points would all stay);
//   - p_a - p_b > domSlack*Pmax; and
//   - under a budget, b costs no more than a: no more rated peak and no
//     more switch power,
//
// where Rmax and Pmax bound the R and P of any configuration of the
// space. Swapping b for a keeps a configuration within the budget (its
// peak sums the groups' rated peaks, then adds the switches, and
// rounding is monotone in every term), raises R by more
// than domSlack*R or leaves T bitwise as it was, and lowers P by more
// than domSlack*P: the real E falls, and the real T does not rise, by
// a relative 1e-9 or more — a million times the model's rounding
// (~1e-15) — so the computed values order the same way. A margin
// relative to a's own rate would not carry over: a small group's 1e-9
// gain can be 1e-15 of the total. Dominance is transitive, so every
// dropped configuration is beaten — lower energy, time no later — by
// one of the staircase product, which Frontier's scan meets first (or
// in the same time class, as the cheaper representative): it could
// never accept the dropped one, and removing it leaves the scan
// unchanged. Unsupported choices never enter the walk either, since
// every configuration holding one fails, and neither do zero-rate ones
// (a unit time past float64's range), which take no share of the work.
//
// Why the walk is exact. A walked point is dropped only when a point
// retained at that moment weakly dominates it: q.Time <= p.Time and
// q.Energy <= p.Energy, with q enumerated first (admission, which also
// rejects exact duplicates so the first representative wins), or q
// strictly better on one axis (eviction). Domination is transitive, so
// the final staircase weakly dominates every dropped point. In
// Frontier's scan, acceptance of p would require p.Energy <
// bestEnergy*(1-1e-9) <= q.Energy — a contradiction — and rejected
// points never mutate the scan state (bestEnergy, lastTime), so
// removing them leaves the output unchanged: the result equals
// Frontier over every evaluated point, which (by bitwise-equal
// scalars) equals the reference path's frontier point for point.

// domSlack is the relative dominance margin of the per-type reduction,
// eight orders of magnitude above the model's rounding.
const domSlack = 1e-9

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

// typeClass sizes one node type's operating points for the closed-form
// count: all of them, the supported ones, and the supported ones with
// zero execution rate. Node counts multiply each alike.
type typeClass struct{ ops, sup, zero int64 }

// spaceKey is what a walked space depends on besides its table: each
// limit's shape (a private copy, Freqs included), the budget's presence
// and switch model, and NoPrune. The budget's cap is not part of it:
// only tally and the walk's peakCap read the cap.
type spaceKey struct {
	limits   []cluster.Limit
	budget   bool
	switched string
	sw       hardware.SwitchModel
	noPrune  bool
}

// matches reports whether a sweep of (limits, b, noPrune) walks the
// space built for k, by field equality: no key string, no allocation.
func (k *spaceKey) matches(limits []cluster.Limit, b *cluster.PowerBudget, noPrune bool) bool {
	if k.noPrune != noPrune || k.budget != (b != nil) || len(k.limits) != len(limits) {
		return false
	}
	if b != nil && (k.switched != b.Switched || k.sw != b.Switch) {
		return false
	}
	for i := range limits {
		l, m := &limits[i], &k.limits[i]
		if l.Type != m.Type || l.MaxNodes != m.MaxNodes || l.MaxCores != m.MaxCores ||
			l.FixCoresAndFreq != m.FixCoresAndFreq || !slices.Equal(l.Freqs, m.Freqs) {
			return false
		}
	}
	return true
}

// spaceSoA is the columnar (structure-of-arrays) form of the walked
// configuration space: every walked per-type choice flattened into
// parallel slices, segmented by typeOff. Walked choice j is the group
// of count[j] nodes at calcs[j]'s operating point. A space published on
// a shared table (spaceFor) is immutable: concurrent sweeps read it,
// and the walk's mutable state lives in the pooled fastEngine.
type spaceSoA struct {
	// key is set on published spaces only.
	key    spaceKey
	nTypes int

	// byRank walks type indices in node-type-name order — the canonical
	// cluster.NewConfig group order the bitwise-exact evaluator and
	// PowerBudget.Peak sum in.
	byRank []int32
	// typeOff[i]..typeOff[i+1] is type i's segment of the columns.
	typeOff []int32
	count   []int32
	rate    []float64 // NodeRate * Count, the choice's rate contribution
	// The choice's two budget shares (PowerBudget.Shares): its nodes at
	// their rated peak, and its switches; both 0 without a budget.
	nodesW, switchW []float64
	calcs           []*model.UnitCalc
	cls             []typeClass
}

// group returns walked choice j as a cluster.Group.
func (sp *spaceSoA) group(j int32) cluster.Group {
	uc := sp.calcs[j]
	return cluster.Group{Type: uc.Type, Count: int(sp.count[j]), Cores: uc.Cores, Freq: uc.Freq}
}

// publish returns a right-sized copy of the walked columns, keyed for
// spaceFor's lookup. It shares nothing mutable with sp or the caller.
func (sp *spaceSoA) publish(limits []cluster.Limit, b *cluster.PowerBudget, noPrune bool) *spaceSoA {
	n := sp.typeOff[sp.nTypes]
	out := &spaceSoA{
		key:     spaceKey{limits: slices.Clone(limits), budget: b != nil, noPrune: noPrune},
		nTypes:  sp.nTypes,
		byRank:  slices.Clone(sp.byRank),
		typeOff: slices.Clone(sp.typeOff),
		count:   slices.Clone(sp.count[:n]),
		rate:    slices.Clone(sp.rate[:n]),
		nodesW:  slices.Clone(sp.nodesW[:n]),
		switchW: slices.Clone(sp.switchW[:n]),
		calcs:   slices.Clone(sp.calcs[:n]),
		cls:     slices.Clone(sp.cls),
	}
	for i := range out.key.limits {
		out.key.limits[i].Freqs = slices.Clone(out.key.limits[i].Freqs)
	}
	if b != nil {
		out.key.switched, out.key.sw = b.Switched, b.Switch
	}
	return out
}

// spaceBuilder is the pooled scratch a space is built and reduced in.
type spaceBuilder struct {
	spaceSoA

	// Reduction scratch: each choice's p = rate * EnergyPerUnit, one
	// type's resolved operating points, and reduce's sort order, cost
	// keys, prefix minima and verdicts.
	p       []float64
	opCalcs []*model.UnitCalc
	order   []int32
	costKey []int32
	minP    []float64
	keep    []bool
}

// build lays out the walked choices of every type in enumeration order
// (count, then cores, then frequency, as Limit.Choices lists them):
// each type's dominance staircase when reduce is set, else every
// supported choice. The result lives in bld's scratch.
func (bld *spaceBuilder) build(limits []cluster.Limit, table *model.Table, b *cluster.PowerBudget, reduce bool) *spaceSoA {
	sp := &bld.spaceSoA
	n := len(limits)
	sp.nTypes = n
	sp.typeOff = grow(sp.typeOff, n+1)
	sp.cls = grow(sp.cls, n)
	sp.count, sp.rate, bld.p = sp.count[:0], sp.rate[:0], bld.p[:0]
	sp.nodesW, sp.switchW, sp.calcs = sp.nodesW[:0], sp.switchW[:0], sp.calcs[:0]
	var rMax, pMax float64
	for i, l := range limits {
		sp.typeOff[i] = int32(len(sp.count))
		ops := l.OperatingPoints()
		c := typeClass{ops: int64(len(ops))}
		bld.opCalcs = bld.opCalcs[:0]
		for _, op := range ops {
			uc := table.Calc(op)
			bld.opCalcs = append(bld.opCalcs, uc)
			if uc.Supported {
				c.sup++
				if !(uc.NodeRate > 0) {
					c.zero++
				}
			}
		}
		sp.cls[i] = c
		var typeR, typeP float64
		for cnt := 1; cnt <= l.MaxNodes; cnt++ {
			var nodesW, switchW units.Watts
			if b != nil {
				nodesW, switchW = b.Shares(l.Type, cnt)
			}
			for _, uc := range bld.opCalcs {
				// The group rate exactly as the model computes it.
				rate := uc.NodeRate * float64(cnt)
				if !uc.Supported || reduce && !(rate > 0) {
					continue
				}
				p := rate * uc.EnergyPerUnit
				sp.calcs = append(sp.calcs, uc)
				sp.count = append(sp.count, int32(cnt))
				sp.rate = append(sp.rate, rate)
				sp.nodesW = append(sp.nodesW, float64(nodesW))
				sp.switchW = append(sp.switchW, float64(switchW))
				bld.p = append(bld.p, p)
				typeR, typeP = max(typeR, rate), max(typeP, p)
			}
		}
		rMax, pMax = rMax+typeR, pMax+typeP
	}
	sp.typeOff[n] = int32(len(sp.count))
	if reduce {
		dst := int32(0)
		for i := range n {
			lo, hi := sp.typeOff[i], sp.typeOff[i+1]
			sp.typeOff[i] = dst
			dst = bld.reduce(lo, hi, dst, domSlack*rMax, domSlack*pMax)
		}
		sp.typeOff[n] = dst
	}

	sp.byRank = grow(sp.byRank, n)
	for i := range sp.byRank {
		sp.byRank[i] = int32(i)
	}
	slices.SortStableFunc(sp.byRank, func(a, b int32) int {
		return strings.Compare(limits[a].Type.Name, limits[b].Type.Name)
	})
	return sp
}

// reduce keeps the choices of the segment [lo,hi) that no other choice
// of it dominates (see the exactness argument above) and moves them, in
// enumeration order, to start at dst; it returns the segment's new end.
//
// Under a budget both of a choice's shares grow with its node count,
// so key ranks their pairs in count order and b costs no more than a
// exactly when key_b <= key_a. A type whose share falls as nodes are
// added (a negative rated peak or switch power) keeps every choice.
//
// Sorted by rate descending, then count, unit time and p ascending,
// every dominator of a choice precedes it: a faster one by its rate, an
// equal-time one (same rate, count and unit time, so adjacent) by its
// p. The choices faster than a by more than dR form a prefix of that
// order, which only grows as the rate falls, so one pass feeds each
// choice into prefix minima of p over cost keys (a Fenwick tree) once
// it clears the current choice's slack. A choice is dominated when the
// minimum up to its key, or the p of its equal-time class's first
// member, beats its own by more than dP; a NaN p (from an overflowed
// rate) poisons the minima it enters, which only keeps more choices.
// Testing against every earlier choice keeps what testing against the
// survivors would, since dominance is transitive. The pass is
// O(n log n).
func (bld *spaceBuilder) reduce(lo, hi, dst int32, dR, dP float64) int32 {
	sp := &bld.spaceSoA
	n := int(hi - lo)
	key, keep := grow(bld.costKey, n), grow(bld.keep, n)
	mono := true
	for i := range n {
		key[i], keep[i] = 0, true
		if j := lo + int32(i); i > 0 {
			key[i] = key[i-1]
			if sp.nodesW[j] != sp.nodesW[j-1] || sp.switchW[j] != sp.switchW[j-1] {
				key[i]++
				mono = mono && sp.nodesW[j] >= sp.nodesW[j-1] && sp.switchW[j] >= sp.switchW[j-1]
			}
		}
	}
	ord, p := bld.order[:0], bld.p
	if mono && n > 0 {
		for j := lo; j < hi; j++ {
			ord = append(ord, j)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			if c := cmp.Compare(sp.rate[b], sp.rate[a]); c != 0 {
				return c // rates rarely tie: spare the other keys
			}
			return cmp.Or(cmp.Compare(sp.count[a], sp.count[b]), cmp.Compare(sp.calcs[a].UnitTotal, sp.calcs[b].UnitTotal),
				cmp.Compare(p[a], p[b]), cmp.Compare(a, b))
		})
		minP := grow(bld.minP, int(key[n-1])+1)
		for k := range minP {
			minP[k] = math.Inf(1)
		}
		fed, cls := 0, 0
		for i, a := range ord {
			for ; fed < i && sp.rate[ord[fed]]-sp.rate[a] > dR; fed++ {
				b := ord[fed]
				for k := int(key[b-lo]); k < len(minP); k |= k + 1 {
					minP[k] = min(minP[k], p[b])
				}
			}
			if prev := ord[max(i-1, 0)]; sp.count[a] != sp.count[prev] || sp.calcs[a].UnitTotal != sp.calcs[prev].UnitTotal {
				cls = i
			}
			best := p[ord[cls]]
			for k := int(key[a-lo]); k >= 0; k = k&(k+1) - 1 {
				best = min(best, minP[k])
			}
			keep[a-lo] = !(p[a]-best > dP)
		}
		bld.minP = minP
	}
	for j := lo; j < hi; j++ {
		if keep[j-lo] {
			sp.count[dst], sp.rate[dst], sp.calcs[dst] = sp.count[j], sp.rate[j], sp.calcs[j]
			sp.nodesW[dst], sp.switchW[dst] = sp.nodesW[j], sp.switchW[j]
			dst++
		}
	}
	bld.order, bld.costKey, bld.keep = ord, key, keep
	return dst
}

// tally counts, in closed form, how a walk of every configuration
// would account it: over the budget, filtered; else skipped when a
// group has no demand vector or no group a positive rate; else
// evaluated. It enumerates node-count vectors in node-type-name order
// (r indexes byRank), summing the budget's shares as PowerBudget.Peak
// does (the rated peaks in group order, then the switches), and weighs
// each vector by how many configurations share it: all of them, those
// of supported choices only, and those of zero-rate choices only.
// Without a budget every count of a type is alike, so a type takes one
// step.
func (sp *spaceSoA) tally(limits []cluster.Limit, b *cluster.PowerBudget, r int, nonEmpty bool, nodesW, switchW float64, all, sup, zero int64, st *SweepStats) {
	if r == sp.nTypes {
		if !nonEmpty {
			return
		}
		if b != nil && !(nodesW+switchW <= float64(b.Cap)) {
			st.Filtered += all
		} else {
			st.Evaluated += sup - zero
			st.Skipped += all - sup + zero
		}
		return
	}
	sp.tally(limits, b, r+1, nonEmpty, nodesW, switchW, all, sup, zero, st)
	l, c := limits[sp.byRank[r]], sp.cls[sp.byRank[r]]
	if b == nil {
		if m := int64(l.MaxNodes); m > 0 {
			sp.tally(limits, b, r+1, true, 0, 0, all*m*c.ops, sup*m*c.sup, zero*m*c.zero, st)
		}
		return
	}
	for cnt := 1; cnt <= l.MaxNodes; cnt++ {
		n, sw := b.Shares(l.Type, cnt)
		sp.tally(limits, b, r+1, true, nodesW+float64(n), switchW+float64(sw), all*c.ops, sup*c.sup, zero*c.zero, st)
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

// fastEngine is one sweep's depth-first walk over a spaceSoA, and all
// of the sweep's mutable state.
type fastEngine struct {
	sp    *spaceSoA
	table *model.Table
	// peakCap is the budget's cap, +Inf without a budget (whose share
	// columns are all 0).
	peakCap float64
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
}

func (e *fastEngine) reset(sp *spaceSoA, table *model.Table, sw *SweepOptions, cancel <-chan struct{}) {
	*e = fastEngine{sp: sp, table: table, peakCap: math.Inf(1), pr: sw.Progress, cancel: cancel,
		sel: grow(e.sel, sp.nTypes), gcsBuf: slices.Grow(e.gcsBuf[:0], sp.nTypes), front: e.front[:0], sels: e.sels[:0]}
	if sw.Budget != nil {
		e.peakCap = float64(sw.Budget.Cap)
	}
	for i := range e.sel {
		e.sel[i] = -1
	}
}

// release drops references into caller-owned state so pooled scratch
// does not pin progress reporters, the space or the table across
// sweeps.
func (e *fastEngine) release() {
	e.sp = nil
	e.table = nil
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

// rec walks types i.. of the product in Enumerate's order, so the
// first representative of a tie is the reference path's.
func (e *fastEngine) rec(i int, nonEmpty bool) {
	if e.stop {
		return
	}
	sp := e.sp
	if i == sp.nTypes {
		if nonEmpty {
			e.leaf()
		}
		return
	}
	// Skip this type, as Enumerate does first.
	e.rec(i+1, nonEmpty)
	for j := sp.typeOff[i]; j < sp.typeOff[i+1] && !e.stop; j++ {
		e.sel[i] = j
		e.rec(i+1, true)
	}
	e.sel[i] = -1
}

// configOf materializes a selection block as a canonical Config
// (groups in node-type-name order).
func (e *fastEngine) configOf(sel []int32) cluster.Config {
	sp := e.sp
	groups := make([]cluster.Group, 0, sp.nTypes)
	for _, ti := range sp.byRank {
		if j := sel[ti]; j >= 0 {
			groups = append(groups, sp.group(j))
		}
	}
	return cluster.Config{Groups: groups}
}

// leaf evaluates the selected configuration. One over the budget, or
// with no positive rate (walked only under NoPrune), is left to the
// closed-form count.
func (e *fastEngine) leaf() {
	sp := e.sp
	gcs := e.gcsBuf[:0]
	// The peak as PowerBudget.Peak sums it: only the switched type has
	// a nonzero switch share, so switchW sums exactly.
	nodesW, switchW := 0.0, 0.0
	for _, ti := range sp.byRank {
		if j := e.sel[ti]; j >= 0 {
			gcs = append(gcs, model.GroupCalc{Calc: sp.calcs[j], Count: int(sp.count[j])})
			nodesW += sp.nodesW[j]
			switchW += sp.switchW[j]
		}
	}
	e.account(1)
	if !(nodesW+switchW <= e.peakCap) {
		return
	}
	if fr, ok := e.table.EvaluateCalcs(gcs); ok {
		e.nEvaluated++
		e.admit(fr.Time, fr.Energy)
	}
}

// frontier applies Frontier's admission rule to the staircase — the
// first point, then any point improving energy by more than the 1e-9
// noise margin — materializing Configs and Results only for the
// points that make the cut. The staircase holds one point per time
// class, each its class's first lowest-energy representative, so no
// sort is needed.
func (e *fastEngine) frontier() []Point {
	out := slices.Grow([]Point(nil), len(e.front))
	bestEnergy := units.Joules(0)
	for _, p := range e.front {
		if len(out) > 0 && !(float64(p.e) < float64(bestEnergy)*(1-1e-9)) {
			continue
		}
		base := int(p.sel) * e.sp.nTypes
		cfg := e.configOf(e.sels[base : base+e.sp.nTypes])
		pt := Point{Config: cfg, Time: p.t, Energy: p.e}
		if res, err := e.table.Materialize(cfg); err == nil {
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
	bld spaceBuilder
	eng fastEngine
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// spaceFor returns the space a sweep of (limits, b, noPrune) walks on
// table. On a shared table it is the table's published space when that
// space's key matches; a miss builds in bld, publishes a right-sized
// copy and replaces the table's slot with it. A sweep on a table of its
// own walks bld's build in place: nothing could read a slot on a table
// the sweep throws away. Every build counts in pareto.spaces_built.
func spaceFor(bld *spaceBuilder, limits []cluster.Limit, table *model.Table, b *cluster.PowerBudget, noPrune, shared bool) *spaceSoA {
	if shared {
		if sp, ok := table.Space().(*spaceSoA); ok && sp.key.matches(limits, b, noPrune) {
			return sp
		}
	}
	telemetry.Global().Counter("pareto.spaces_built").Inc()
	// An invalid profile leaves every operating point unsupported, so
	// the closed form skips the whole space, as the reference path does.
	sp := bld.build(limits, table, b, !noPrune)
	if shared {
		sp = sp.publish(limits, b, noPrune)
		table.SetSpace(sp)
	}
	return sp
}

// frontierSweepFast is the memoized closed-form sweep behind
// FrontierSweep: identical results to the reference path, orders of
// magnitude faster (see the exactness argument at the top of this
// file).
func frontierSweepFast(limits []cluster.Limit, wl *workload.Profile, opt model.Options, sw SweepOptions) ([]Point, error) {
	span := telemetry.Start(sw.Context, "pareto.frontier_sweep").
		Arg("workload", wl.Name).Arg("engine", "fast")
	defer span.End()
	if err := cluster.ValidateLimits(limits); err != nil {
		return nil, err
	}
	reg := telemetry.Global()
	evaluated := reg.Counter("pareto.configs_evaluated")
	skipped := reg.Counter("pareto.configs_skipped")
	filtered := reg.Counter("pareto.configs_filtered")
	pruned := reg.Counter("pareto.configs_pruned")

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

	sp := spaceFor(&sc.bld, limits, table, sw.Budget, sw.NoPrune, sw.Table != nil)
	var st SweepStats
	sp.tally(limits, sw.Budget, 0, false, 0, 0, 1, 1, 1, &st)
	product := int64(1) // configurations the walk visits, plus the empty one
	for i := range sp.nTypes {
		product *= int64(1 + sp.typeOff[i+1] - sp.typeOff[i])
	}

	e := &sc.eng
	e.reset(sp, table, &sw, ctx.Done())
	defer e.release()
	// Tick what the closed form counted and the walk will not visit.
	e.account(st.Evaluated + st.Skipped + st.Filtered - (product - 1))
	e.rec(0, false)
	// A walk stopped by cancellation is incomplete; one cancelled after
	// its last poll fails too, so a cancelled context always yields its
	// error.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.Evaluated, st.Pruned = e.nEvaluated, st.Evaluated-e.nEvaluated
	out := e.frontier()

	evaluated.Add(uint64(st.Evaluated))
	skipped.Add(uint64(st.Skipped))
	filtered.Add(uint64(st.Filtered))
	pruned.Add(uint64(st.Pruned))
	rc := telemetry.RequestFrom(ctx)
	rc.Add(telemetry.AttrConfigsEvaluated, st.Evaluated)
	rc.Add(telemetry.AttrConfigsFiltered, st.Filtered)
	rc.Add(telemetry.AttrConfigsPruned, st.Pruned)
	if sw.Stats != nil {
		*sw.Stats = st
	}
	span.Arg("evaluated", st.Evaluated).Arg("pruned", st.Pruned)
	sw.Progress.Done()
	return out, nil
}
