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
// Work and power are integrated lazily: the node keeps the current
// (power, unit-completion) derivatives and accrues energy and units on
// every state change and heartbeat. Between changes the node is in
// steady state, so the integration is exact — the heartbeat only bounds
// how stale the accumulators can get and feeds the power sampler.
type node struct {
	index    int
	template int
	group    cluster.Group
	demand   workload.Demand
	wl       *workload.Profile
	rng      *stats.RNG // chaos stream, derived from (seed, index) only

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
	u           float64 // assigned busy fraction
	power       float64 // current draw, watts
	unitsPerSec float64 // current completion rate

	// Accounting.
	lastT     float64
	energy    stats.KahanSum // joules
	done      stats.KahanSum // completed units
	busyTime  stats.KahanSum // node-seconds busy
	down      float64        // node-seconds failed
	failures  int
	repairs   int
	throttles int
	caps      int
	straggler bool
}

// chaosStream derives the per-node PRNG seed by FNV-1a mixing the run
// seed with the node index, so stream i is independent of how many
// nodes exist and of every other stream.
func chaosStream(seed uint64, index int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	for i := 0; i < 8; i++ {
		mix(byte(seed >> (8 * i)))
	}
	for _, b := range []byte("fleet.chaos") {
		mix(b)
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(index) >> (8 * i)))
	}
	return h
}

// initNode sets n up as fleet member index, healthy and unloaded.
func initNode(n *node, index, template int, g cluster.Group, d workload.Demand, wl *workload.Profile, seed uint64) {
	*n = node{
		index:           index,
		template:        template,
		group:           g,
		demand:          d,
		wl:              wl,
		rng:             stats.NewRNG(chaosStream(seed, index)),
		throttleFactor:  1,
		stragglerFactor: 1,
	}
	n.recalc()
	n.nominalRate = n.rate
	if n.rate > 0 {
		n.idealUnitJ = n.unitTime * (n.idlePower + n.dynPower)
	}
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
		n.setLoad(0)
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
	if n.u > n.maxU {
		n.u = n.maxU
	}
	n.setLoad(n.loadScale())
}

// loadScale recovers the fleet-wide scale from the node's current
// assignment so recalc can preserve it; setLoad applies a new one.
func (n *node) loadScale() float64 {
	if n.maxU <= 0 {
		return 0
	}
	return n.u / n.maxU
}

// setLoad assigns the fleet-wide load scale: the node runs at scale of
// its own (possibly degraded) capacity, the rate-matched share.
func (n *node) setLoad(scale float64) {
	if n.failed {
		n.u = 0
		n.power = 0
		n.unitsPerSec = 0
		return
	}
	n.u = n.maxU * scale
	n.power = n.idlePower + n.u*n.dynPower
	n.unitsPerSec = n.u * n.rate
}

// capacity is the node's current sustainable completion rate.
func (n *node) capacity() float64 {
	if n.failed {
		return 0
	}
	return n.rate * n.maxU
}

// advanceTo integrates the steady-state derivatives from the last
// update to now.
func (n *node) advanceTo(now float64) {
	dt := now - n.lastT
	if dt <= 0 {
		return
	}
	n.lastT = now
	if n.failed {
		n.down += dt
		return
	}
	n.energy.Add(n.power * dt)
	n.done.Add(n.unitsPerSec * dt)
	n.busyTime.Add(n.u * dt)
}
