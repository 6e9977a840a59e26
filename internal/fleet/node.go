package fleet

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// node is one fleet member: a single machine of a template's type,
// running at the template's (cores, frequency) operating point, with
// its own chaos stream.
//
// Work and power are integrated lazily. Every alive node runs at the
// fleet's one load scale of its own capacity (Simulator.rebalance), so
// between the node's own state changes its draw is idle + maxU·dyn·scale
// and its completion rate maxU·rate·scale: affine in the scale, with
// coefficients that change only when the node's own chaos state does.
// The node therefore keeps the time and the fleet's load integral G at
// its last change and accrues idle·Δt + maxU·dyn·ΔG joules and
// maxU·rate·ΔG units only at its next change and at the horizon. The
// integration is exact, not approximate, and a chaos or timed event
// advances only the nodes it changes.
type node struct {
	index  int
	group  cluster.Group
	demand workload.Demand
	wl     *workload.Profile
	rng    stats.RNG // chaos stream, derived from (seed, index) only

	// Chaos state. The zero state is a healthy node: factor 1, no cap.
	failed          bool
	throttleFactor  float64 // effective frequency multiplier, (0, 1]
	stragglerFactor float64 // CPU-side slowdown, >= 1
	capWatts        float64 // whole-node power cap; 0 disables

	// Derived per-state quantities, recomputed by recalc.
	nominalRate float64 // healthy full-speed capacity, units/s
	idealUnitJ  float64 // healthy energy per unit at u=1 (incl. idle share)
	unitTime    float64 // seconds per unit in the current state
	rate        float64 // 1/unitTime (0 when failed)
	idlePower   float64
	dynPower    float64 // watts above idle at full utilization
	maxU        float64 // power-cap-limited max busy fraction

	// Accounting, closed up to lastT, when the load integral read lastG.
	lastT     float64
	lastG     loadIntegral
	energy    stats.KahanSum // joules
	done      stats.KahanSum // completed units
	down      float64        // node-seconds failed
	failures  int
	straggler bool
}

// chaosPrefix hashes the run seed and the stream label with FNV-1a:
// the part of every node's chaos-stream seed that does not depend on
// the node.
func chaosPrefix(seed uint64) uint64 {
	h := fnvWord(14695981039346656037, seed) // FNV-1a offset basis
	for _, b := range []byte("fleet.chaos") {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// chaosStream finishes node index's PRNG seed from the run's
// chaosPrefix, so stream i is independent of how many nodes exist and
// of every other stream.
func chaosStream(prefix uint64, index int) uint64 { return fnvWord(prefix, uint64(index)) }

const fnvPrime = 1099511628211

// fnvWord folds v's eight bytes, low byte first, into the FNV-1a hash h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v>>(8*i))&0xff) * fnvPrime
	}
	return h
}

// healthyNode returns a template's node, healthy and unloaded, with its
// derived state computed once; New copies it into every member of the
// template and seeds each copy's stream.
func healthyNode(g cluster.Group, d workload.Demand, wl *workload.Profile) node {
	n := node{group: g, demand: d, wl: wl, throttleFactor: 1, stragglerFactor: 1}
	n.recalc()
	n.nominalRate = n.rate
	if n.rate > 0 {
		n.idealUnitJ = n.unitTime * (n.idlePower + n.dynPower)
	}
	return n
}

// recalc rebuilds the per-unit time and power derivatives from the
// node's chaos state. The math mirrors model.Evaluate's unitTime and
// Table 2 energy decomposition, evaluated at the throttled effective
// frequency, with the straggler slowdown stretching the CPU-side times
// the way internal/simulator stretches them (the node stays busy, so
// the power attribution keeps its activity fractions).
func (n *node) recalc() {
	g := n.group
	d := n.demand
	c := float64(g.Cores)
	f := float64(g.Freq) * n.throttleFactor
	if f <= 0 || n.failed {
		n.unitTime = math.Inf(1)
		n.rate = 0
		n.dynPower = 0
		n.idlePower = 0 // a failed node is powered off
		n.maxU = 0
		return
	}

	tCore := float64(d.CoreCycles) / (c * f) * n.stragglerFactor
	tMem := float64(d.MemCycles) / f * n.stragglerFactor
	tCPU := tCore
	if tMem > tCPU {
		tCPU = tMem
	}
	tIO := float64(d.IOBytes) / float64(g.Type.NICBandwidth)
	if d.IOReqs > 0 && n.wl.IORate > 0 {
		if wait := d.IOReqs / float64(n.wl.IORate); wait > tIO {
			tIO = wait
		}
	}
	unit := tCPU
	if tIO > unit {
		unit = tIO
	}
	if unit <= 0 {
		unit = 1e-12
	}
	tStall := tMem - tCore
	if tStall < 0 {
		tStall = 0
	}

	p := g.Type.PowerAt(units.Hertz(f))
	dynJ := d.Intensity*float64(p.CPUActPerCore)*c*tCore +
		float64(p.CPUStallPerCore)*c*tStall +
		float64(p.Mem)*tMem +
		float64(p.Net)*tIO

	n.unitTime = unit
	n.rate = 1 / unit
	n.idlePower = float64(p.Idle)
	n.dynPower = dynJ / unit

	// A power cap limits the busy fraction the node may sustain: the
	// dynamic headroom above idle is clamped at (cap - idle). A cap at
	// or below idle stops work entirely but the idle draw remains — the
	// node cannot dip below its floor without powering off.
	n.maxU = 1
	if n.capWatts > 0 && n.dynPower > 0 {
		headroom := (n.capWatts - n.idlePower) / n.dynPower
		if headroom < 0 {
			headroom = 0
		}
		if headroom < 1 {
			n.maxU = headroom
		}
	}
}

// capacity is the node's current sustainable completion rate.
func (n *node) capacity() float64 {
	if n.failed {
		return 0
	}
	return n.rate * n.maxU
}

// advanceTo closes the node's accounts from its last change to now,
// when the fleet's load integral reads g.
func (n *node) advanceTo(now float64, g loadIntegral) {
	dt := now - n.lastT
	if dt <= 0 {
		return
	}
	dg := g.since(n.lastG)
	n.lastT, n.lastG = now, g
	if n.failed {
		n.down += dt
		return
	}
	n.energy.Add(n.idlePower*dt + n.maxU*n.dynPower*dg)
	n.done.Add(n.maxU * n.rate * dg)
}

// loadIntegral is the fleet's G(t) = ∫ scale dt, held as the
// unevaluated sum hi + lo of Knuth's two-sum, so that the difference of
// two readings keeps its relative precision however many scale changes
// G has absorbed in between.
type loadIntegral struct{ hi, lo float64 }

// add accrues v.
func (g *loadIntegral) add(v float64) {
	s := g.hi + v
	b := s - g.hi
	g.lo += (g.hi - (s - b)) + (v - b)
	g.hi = s
}

// since returns g minus an earlier reading.
func (g loadIntegral) since(then loadIntegral) float64 {
	return (g.hi - then.hi) + (g.lo - then.lo)
}

// capTree holds the per-node capacities in a pairwise-summed tree:
// leaves at [n, 2n), node i the sum of nodes 2i and 2i+1, the root at 1.
// Every update recomputes the sums above the changed leaf from their
// children, so the root is a function of the current leaves alone, not
// of the order they changed in: a fleet with every node failed reads
// exactly 0.
type capTree []float64

// newCapTree builds the tree over leaves leaf(0), ..., leaf(n-1) in
// O(n).
func newCapTree(n int, leaf func(i int) float64) capTree {
	t := make(capTree, 2*n)
	for i := range n {
		t[n+i] = leaf(i)
	}
	for i := n - 1; i >= 1; i-- {
		t[i] = t[2*i] + t[2*i+1]
	}
	return t
}

// set replaces leaf i and the O(log n) sums above it.
func (t capTree) set(i int, v float64) {
	i += len(t) / 2
	t[i] = v
	for i > 1 {
		i /= 2
		t[i] = t[2*i] + t[2*i+1]
	}
}

// sum is the total over every leaf.
func (t capTree) sum() float64 { return t[1] }
