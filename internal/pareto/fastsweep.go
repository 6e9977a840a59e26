package pareto

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
//     columnar (structure-of-arrays) slices — count, rate, p, budget
//     shares, unit-calc pointer — so the walk covers only the product of
//     the staircases (about a thousand of the footnote-4 space's
//     36,380 configurations) through cache-linear arrays; a shared
//     table keeps the last space built on it, so repeated sweeps of
//     one space build and reduce it once (spaceFor), and that space
//     keeps the outcome of its last complete walk, so a repeated sweep
//     at the same budget cap does not walk at all (walkRecord),
//  3. certifies, from two sums and one division, each walked
//     configuration that the running staircase (5) covers by the
//     model's closed form (below), and counts it as evaluated without
//     running the model — 54-95% of the walk on the paper's six
//     workloads,
//  4. evaluates every other walked configuration allocation-free
//     through model.EvaluateCalcs, whose scalars are bitwise-identical
//     to model.Evaluate (same expression shapes and accumulation order),
//  5. tests every evaluated point against a running Pareto staircase
//     that is updated on every admission (time strictly ascending,
//     energy strictly descending): one search, continuing the
//     certificate's, rejects a covered point or finds where an
//     admitted point goes, and an admitted point evicts the contiguous
//     run of staircase points it strictly dominates,
//  6. counts the rest of the space in closed form (tally): how many
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
// The closed form and its rounding. The model's rate-matched split
// gives every group the same finish time, so a configuration has
// T = J/R and E = J*P/R in real arithmetic, where J is the table's job
// size and R and P sum, over its groups, the rate (NodeRate * count)
// and p = rate * EnergyPerUnit. Both the reduction and the certificate
// compare these real values and rely on the model's computed T and E
// lying within ~1e-15 of them, relative. That holds on a bounded space
// (spaceSoA.certifiable): the job size and every choice's unit times
// and power terms are 0 or inside float32's range, so no step of the
// model's arithmetic overflows or underflows and each rounds by at most
// 2^-53; every energy term is non-negative; and a choice whose stall
// time is a near-cancelling difference keeps its error within a
// quarter of the margin. A space outside the bound walks every runnable
// choice through the model: a frequency ladder whose energies
// underflow to 0 J makes the computed values tie where the real ones
// do not.
//
// Why the per-type reduction is exact. Choice b of a type dominates
// choice a of the same type when
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
// Why the certificate is exact. On a bounded space the model's
// computed T and E are each at least (1 - ~1e-15) of J/R and J*P/R
// (the stall's cancellation costs at most a quarter of domSlack more,
// and the idle-extension pass only adds energy). The leaf sums R, in
// the order EvaluateCalcs sums its total rate, and P, and takes
// t = J/R and e = t*P. When the staircase covers (t*(1-domSlack),
// e*(1-domSlack)), a staircase point is no later than
// t*(1-domSlack) < T and no costlier than e*(1-domSlack) <= E: admit
// would reject the exact point, so skipping it leaves the staircase as
// it was. Otherwise every point the search passed is no later than T,
// so admit's search goes on from there. The margin puts
// the bound strictly before the exact point, so an exact tie is never
// certified and the first representative still wins. The model would
// have run, and returned, on every such configuration (R > 0), so it
// counts as evaluated. A configuration with R = 0 (a NoPrune walk's
// all-zero-rate mix), or on a space outside the bound, runs the model.
//
// Why the walk is exact. A walked point is dropped only when a point
// retained at that moment weakly dominates it: q.Time <= p.Time and
// q.Energy <= p.Energy, with q enumerated first (admission, which also
// rejects exact duplicates so the first representative wins, and the
// certificate, which places only such points), or q strictly better on
// one axis (eviction). Domination is transitive, so the final staircase
// weakly dominates every dropped point. In Frontier's scan, acceptance
// of p would require p.Energy < bestEnergy*(1-1e-9) <= q.Energy — a
// contradiction — and rejected points never mutate the scan state
// (bestEnergy, lastTime), so removing them leaves the output
// unchanged: the result equals Frontier over every evaluated point,
// which (by bitwise-equal scalars) equals the reference path's
// frontier point for point. A point with a NaN coordinate joins
// neither the staircase nor Frontier's output.
//
// Why the reuse is exact. A walk reads only its space's columns, the
// table's job size and the budget's cap, and the accounting besides
// reads only the limits and the budget, which the space's key holds
// but for the cap. So two walks of one published space at an equal cap
// leave the same staircase and the same accounting, and a sweep that
// finds its space's last complete walk at its own cap materializes that
// walk's staircase instead of walking again.

// domSlack is the relative margin of the per-type reduction and of the
// certificate, eight orders of magnitude above the model's rounding.
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
// a shared table (spaceFor) is immutable but for last, which a complete
// walk replaces atomically with an immutable record: concurrent sweeps
// read it, and the walk's mutable state lives in the pooled fastEngine.
type spaceSoA struct {
	// key and last are set on published spaces only: last holds the
	// outcome of the space's last complete walk.
	key    spaceKey
	last   atomic.Pointer[walkRecord]
	nTypes int

	// byRank walks type indices in node-type-name order — the canonical
	// cluster.NewConfig group order the bitwise-exact evaluator and
	// PowerBudget.Peak sum in.
	byRank []int32
	// typeOff[i]..typeOff[i+1] is type i's segment of the columns.
	typeOff []int32
	count   []int32
	rate    []float64 // NodeRate * Count, the choice's rate contribution
	p       []float64 // rate * EnergyPerUnit, its energy rate at full load
	// The choice's two budget shares (PowerBudget.Shares): its nodes at
	// their rated peak, and its switches; both 0 without a budget.
	nodesW, switchW []float64
	calcs           []*model.UnitCalc
	cls             []typeClass
	// bounded says the rounding bound the reduction and the
	// certificate rest on holds on the space (certifiable).
	bounded bool
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
		p:       slices.Clone(sp.p[:n]),
		nodesW:  slices.Clone(sp.nodesW[:n]),
		switchW: slices.Clone(sp.switchW[:n]),
		calcs:   slices.Clone(sp.calcs[:n]),
		cls:     slices.Clone(sp.cls),
		bounded: sp.bounded,
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

	// Reduction scratch: one type's resolved operating points, and
	// reduce's sort order, cost keys, prefix minima and verdicts.
	opCalcs []*model.UnitCalc
	order   []int32
	costKey []int32
	minP    []float64
	keep    []bool
}

// build lays out the walked choices of every type in enumeration order
// (count, then cores, then frequency, as Enumerate takes them):
// each type's dominance staircase when reduce is set, else every
// supported choice. The result lives in bld's scratch.
func (bld *spaceBuilder) build(limits []cluster.Limit, table *model.Table, b *cluster.PowerBudget, reduce bool) *spaceSoA {
	sp := &bld.spaceSoA
	n := len(limits)
	sp.nTypes = n
	sp.typeOff = grow(sp.typeOff, n+1)
	sp.cls = grow(sp.cls, n)
	sp.count, sp.rate, sp.p = sp.count[:0], sp.rate[:0], sp.p[:0]
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
				sp.p = append(sp.p, p)
				typeR, typeP = max(typeR, rate), max(typeP, p)
			}
		}
		rMax, pMax = rMax+typeR, pMax+typeP
	}
	sp.typeOff[n] = int32(len(sp.count))
	// The reduction rests on the rounding bound the certificate does,
	// so a space outside it walks every runnable choice.
	sp.bounded = sp.certifiable(table.JobUnits())
	if reduce && sp.bounded {
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
// member, beats its own by more than dP. Testing against every earlier choice keeps what testing against the
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
	ord, p := bld.order[:0], sp.p
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
			sp.count[dst], sp.rate[dst], sp.p[dst], sp.calcs[dst] = sp.count[j], sp.rate[j], sp.p[j], sp.calcs[j]
			sp.nodesW[dst], sp.switchW[dst] = sp.nodesW[j], sp.switchW[j]
			dst++
		}
	}
	bld.order, bld.costKey, bld.keep = ord, key, keep
	return dst
}

// certifiable reports whether the rounding bound holds on the built
// space: the job size is positive and every built choice's unit times
// and power terms are 0 or lie in float32's range, so no step of the
// model's arithmetic leaves float64's normal range (no overflow, no
// underflow) and every step rounds by at most 2^-53 relative; and a
// choice whose memory time exceeds its core time keeps the stall
// time's cancellation, 2^-53 (UnitMem+UnitCore) per unit at most,
// within a quarter of the margin of its energy per unit. A NaN,
// infinite or negative term fails the range test.
func (sp *spaceSoA) certifiable(jobUnits float64) bool {
	inRange := func(v float64) bool {
		return v == 0 || math.SmallestNonzeroFloat32 <= v && v <= math.MaxFloat32
	}
	if !(jobUnits > 0 && inRange(jobUnits)) {
		return false
	}
	for _, uc := range sp.calcs[:sp.typeOff[sp.nTypes]] {
		for _, v := range [...]float64{float64(uc.UnitCore), float64(uc.UnitMem), float64(uc.UnitIO), float64(uc.UnitTotal),
			uc.CoefAct, uc.CoefStall, float64(uc.MemW), float64(uc.NetW), float64(uc.IdleW)} {
			if !inRange(v) {
				return false
			}
		}
		if uc.UnitMem > uc.UnitCore && !(0x1p-53*uc.CoefStall*float64(uc.UnitMem+uc.UnitCore) <= domSlack/4*uc.EnergyPerUnit) {
			return false
		}
	}
	return true
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

	// nEvaluated counts the walked runnable configurations: those run
	// through the model plus the nCertified the certificate placed.
	nEvaluated, nCertified int64
}

func (e *fastEngine) reset(sp *spaceSoA, table *model.Table, peakCap float64, pr *telemetry.Progress, cancel <-chan struct{}) {
	*e = fastEngine{sp: sp, table: table, peakCap: peakCap, pr: pr, cancel: cancel,
		sel: grow(e.sel, sp.nTypes), gcsBuf: slices.Grow(e.gcsBuf[:0], sp.nTypes), front: e.front[:0], sels: e.sels[:0]}
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

// upTo returns how many staircase points have time <= t, given that
// the first lo of them do. It gallops from lo, so a search that starts
// where the certificate's search left off costs a step or two, and one
// from 0 costs O(log n). The last of those points has the lowest energy of
// them all, so (t, en) is covered exactly when it exists and its
// energy is <= en.
func (e *fastEngine) upTo(t float64, lo int) int {
	f := e.front
	hi, step := lo, 1
	for hi < len(f) && float64(f[hi].t) <= t {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(f))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if float64(f[m].t) <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// admit places (t, en), with the DFS's current selection, on the
// staircase unless a staircase point covers it or a coordinate is NaN
// (such a point never joins Frontier's output). lo counts staircase
// points known to be no later than t (0 when none is known). From k,
// the first index with time >= t, the new point evicts the contiguous
// run whose energy is >= en — each strictly dominated by it, since the
// point before k (and a same-time point at k) has energy > en when the
// new point is uncovered.
func (e *fastEngine) admit(t units.Seconds, en units.Joules, lo int) {
	if math.IsNaN(float64(t)) || math.IsNaN(float64(en)) {
		return
	}
	f := e.front
	k := e.upTo(float64(t), lo)
	if k > 0 && f[k-1].e <= en {
		return
	}
	if k > 0 && f[k-1].t == t {
		k--
	}
	end := k
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
func (sp *spaceSoA) configOf(sel []int32) cluster.Config {
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
// closed-form count. One the certificate shows covered is counted as
// evaluated without running the model; the rest run it.
func (e *fastEngine) leaf() {
	sp := e.sp
	// The peak as PowerBudget.Peak sums it: only the switched type has
	// a nonzero switch share, so switchW sums exactly. r sums the rates
	// as evaluateCalcs sums its total rate, bit for bit.
	nodesW, switchW, r, p := 0.0, 0.0, 0.0, 0.0
	for _, ti := range sp.byRank {
		if j := e.sel[ti]; j >= 0 {
			nodesW += sp.nodesW[j]
			switchW += sp.switchW[j]
			r += sp.rate[j]
			p += sp.p[j]
		}
	}
	e.account(1)
	if !(nodesW+switchW <= e.peakCap) {
		return
	}
	// k counts the staircase points no later than the exact point, as
	// far as the certificate's search found them; admit goes on from it.
	k := 0
	if t := e.table.JobUnits() / r; sp.bounded && r > 0 {
		k = e.upTo(t*(1-domSlack), 0)
		if k > 0 && float64(e.front[k-1].e) <= t*p*(1-domSlack) {
			e.nEvaluated++
			e.nCertified++
			return
		}
	}
	gcs := e.gcsBuf[:0]
	for _, ti := range sp.byRank {
		if j := e.sel[ti]; j >= 0 {
			gcs = append(gcs, model.GroupCalc{Calc: sp.calcs[j], Count: int(sp.count[j])})
		}
	}
	if fr, ok := e.table.EvaluateCalcs(gcs); ok {
		e.nEvaluated++
		e.admit(fr.Time, fr.Energy, k)
	}
}

// walkRecord is the outcome of one complete walk of a space at one
// budget cap: the staircase it left, whose point i selects the block
// sels[i*nTypes:(i+1)*nTypes], the walk's accounting and its certified
// count. It shares nothing with the pooled engine that walked it and is
// immutable, so a published space can keep it for later sweeps.
type walkRecord struct {
	peakCap   float64
	front     []fastPoint
	sels      []int32
	stats     SweepStats
	certified int64
}

// walk runs the engine over sp at peakCap and returns what the walk
// left, or the context's error when it was cancelled: a walk stopped by
// cancellation is incomplete, and one cancelled after its last poll
// fails too, so a cancelled context always yields its error.
func (e *fastEngine) walk(ctx context.Context, sp *spaceSoA, limits []cluster.Limit, table *model.Table, sw *SweepOptions, peakCap float64) (*walkRecord, error) {
	var st SweepStats
	sp.tally(limits, sw.Budget, 0, false, 0, 0, 1, 1, 1, &st)
	product := int64(1) // configurations the walk visits, plus the empty one
	for i := range sp.nTypes {
		product *= int64(1 + sp.typeOff[i+1] - sp.typeOff[i])
	}
	e.reset(sp, table, peakCap, sw.Progress, ctx.Done())
	defer e.release()
	// Tick what the closed form counted and the walk will not visit.
	e.account(st.Evaluated + st.Skipped + st.Filtered - (product - 1))
	e.rec(0, false)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.Evaluated, st.Pruned = e.nEvaluated, st.Evaluated-e.nEvaluated
	// Copy the staircase's own selection blocks out of the pooled
	// buffers, which the next reset appends into; evicted points' blocks
	// stay behind.
	n := sp.nTypes
	w := &walkRecord{peakCap: peakCap, front: slices.Clone(e.front), sels: make([]int32, 0, len(e.front)*n),
		stats: st, certified: e.nCertified}
	for i := range w.front {
		base := int(w.front[i].sel) * n
		w.sels = append(w.sels, e.sels[base:base+n]...)
		w.front[i].sel = int32(i)
	}
	return w, nil
}

// frontier applies Frontier's admission rule to the staircase w left on
// sp — the first point, then any point improving energy by more than
// the 1e-9 noise margin — materializing fresh, caller-owned Configs and
// Results only for the points that make the cut. The staircase holds
// one point per time class, each its class's first lowest-energy
// representative, so no sort is needed.
func (w *walkRecord) frontier(sp *spaceSoA, table *model.Table) []Point {
	out := slices.Grow([]Point(nil), len(w.front))
	bestEnergy := units.Joules(0)
	for _, p := range w.front {
		if len(out) > 0 && !(float64(p.e) < float64(bestEnergy)*(1-1e-9)) {
			continue
		}
		base := int(p.sel) * sp.nTypes
		cfg := sp.configOf(w.sels[base : base+sp.nTypes])
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

// FrontierSweep is the instrumented frontier pipeline: the memoized
// closed-form engine this file implements, with per-type dominance
// staircases over a memoized unit-calc table, an allocation-free walk of
// their product and a running Pareto staircase. Its results are
// identical, point for point, to evaluating the full space through
// model.Evaluate (see the exactness argument at the top of this file);
// the serial oracle that does so lives in the package's tests.
func FrontierSweep(limits []cluster.Limit, wl *workload.Profile, opt model.Options, sw SweepOptions) ([]Point, error) {
	span := telemetry.Start(sw.Context, "pareto.frontier_sweep")
	defer span.End()
	if span.KeepsArgs() {
		span.Arg("workload", wl.Name).Arg("engine", "fast")
	}
	if err := cluster.ValidateLimits(limits); err != nil {
		return nil, err
	}
	reg := telemetry.Global()
	evaluated := reg.Counter("pareto.configs_evaluated")
	skipped := reg.Counter("pareto.configs_skipped")
	filtered := reg.Counter("pareto.configs_filtered")
	pruned := reg.Counter("pareto.configs_pruned")
	certified := reg.Counter("pareto.configs_certified")
	reused := reg.Counter("pareto.configs_reused")

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

	shared := sw.Table != nil
	sp := spaceFor(&sc.bld, limits, table, sw.Budget, sw.NoPrune, shared)
	peakCap := math.Inf(1) // without a budget every share column is 0
	if sw.Budget != nil {
		peakCap = float64(sw.Budget.Cap)
	}
	// A published space keeps its last complete walk; at the same cap
	// that walk is this sweep's (see the reuse argument above).
	var w *walkRecord
	if shared {
		w = sp.last.Load()
	}
	if w != nil && w.peakCap == peakCap {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sw.Progress.Add(w.stats.Evaluated + w.stats.Skipped + w.stats.Filtered + w.stats.Pruned)
		reused.Add(uint64(w.stats.Evaluated))
	} else {
		var err error
		if w, err = sc.eng.walk(ctx, sp, limits, table, &sw, peakCap); err != nil {
			return nil, err
		}
		// walk returned, so it ran to its end under a live context.
		if shared {
			sp.last.Store(w)
		}
		certified.Add(uint64(w.certified))
	}
	out := w.frontier(sp, table)

	st := w.stats
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
	if span.KeepsArgs() {
		span.Arg("evaluated", st.Evaluated).Arg("pruned", st.Pruned)
	}
	sw.Progress.Done()
	return out, nil
}
