// Package fleet promotes the per-node measurement substrate
// (internal/simulator) to a shared-clock multi-node fleet simulator:
// thousands of heterogeneous nodes, each with its own chaos stream,
// advanced in global timestamp order on one fleet calendar.
//
// Where internal/simulator executes one job on one configuration and
// stops, the fleet runs a continuous offered load against a long-lived
// population of nodes and integrates energy, completed work and lost
// work over a virtual horizon — while a chaos layer injects node
// failures, DVFS throttling, power-cap events and stragglers from
// seed-reproducible per-node PRNG streams. This is the substrate for
// re-asking the paper's energy-proportionality questions under
// failures rather than steady state.
//
// The calendar is a binary min-heap of value events (calendar.go)
// holding the coordinator's work (power samples, timed scenario events
// and their reverts) and each node's chaos episodes. Heartbeats stay
// out of it: every node beats on one shared grid (t1 = slice, tk+1 =
// tk + slice) in node-index order, so the run loop sweeps them with a
// cursor and merges each against the heap head in O(1).
//
// Determinism contract: a fleet run is a pure function of its Spec
// (including Seed). Events are ordered by (virtual time, engine,
// schedule order), engine 0 being the coordinator and engine i+1 node
// i; chaos draws come from per-node streams derived only from (Seed,
// node index); and all summary aggregation iterates in node-index or
// sorted-type order. Two runs of the same Spec produce
// bitwise-identical summaries.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// Spec configures a fleet run. The zero value is invalid: a spec needs
// at least one template, a workload and a positive duration.
type Spec struct {
	// Name labels the run in summaries and telemetry.
	Name string
	// Workload is the service-demand profile every node executes.
	Workload *workload.Profile
	// Templates define the heterogeneous population: Count nodes of the
	// group's type at (Cores, Freq) per template. Node indices are
	// assigned in template order, first template first.
	Templates []cluster.Group
	// Duration is the virtual horizon of the run.
	Duration units.Seconds
	// Slice is the heartbeat period of every node and the fleet-wide
	// power sampling interval. Zero defaults to 1 s.
	Slice units.Seconds
	// Utilization is the offered load as a fraction of the fleet's
	// nominal (healthy, uncapped) processing capacity. Values above 1
	// offer more work than the fleet can complete; the excess is
	// accounted as lost. Timed set_utilization events change it mid-run.
	Utilization float64
	// Seed drives every random draw of the run (chaos streams).
	Seed uint64
	// Latency, when set, turns on the analytic tail-latency probe: at
	// every power sample the currently alive capacity is fed through the
	// selected queueing kernel at the offered load. Nil keeps summaries
	// byte-identical to pre-probe runs.
	Latency *LatencySpec
	// Chaos configures the background chaos injection processes.
	Chaos Chaos
	// Events are the scenario's timed interventions, applied in time
	// order by the coordinator.
	Events []TimedEvent
}

// Validate checks the spec without running it.
func (s *Spec) Validate() error {
	if s.Workload == nil {
		return errors.New("fleet: spec has no workload")
	}
	if len(s.Templates) == 0 {
		return errors.New("fleet: spec has no node templates")
	}
	for i, g := range s.Templates {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("fleet: template %d: %w", i, err)
		}
		if !s.Workload.Supports(g.Type.Name) {
			return fmt.Errorf("fleet: workload %s has no demand for node type %s",
				s.Workload.Name, g.Type.Name)
		}
	}
	if !(s.Duration > 0) || !s.Duration.IsFinite() {
		return fmt.Errorf("fleet: non-positive duration %v", s.Duration)
	}
	if !(s.Slice >= 0) {
		return fmt.Errorf("fleet: slice %g s is negative or NaN", float64(s.Slice))
	}
	if s.Slice > 0 && s.Duration/s.Slice > 50e6 {
		return fmt.Errorf("fleet: slice %v yields more than 50M heartbeats over %v", s.Slice, s.Duration)
	}
	if s.Utilization < 0 || math.IsNaN(s.Utilization) {
		return fmt.Errorf("fleet: negative utilization %g", s.Utilization)
	}
	if err := s.Chaos.Validate(); err != nil {
		return err
	}
	if s.Latency != nil {
		if err := s.Latency.Validate(); err != nil {
			return err
		}
	}
	for i := range s.Events {
		if err := s.Events[i].Validate(s.Duration); err != nil {
			return fmt.Errorf("fleet: event %d: %w", i, err)
		}
	}
	return nil
}

// LatencySpec configures the fleet's analytic tail-latency probe. At
// every power sample the fleet's current alive (possibly degraded)
// aggregate capacity becomes the service rate of the selected queueing
// kernel serving the offered load, so node failures, throttling and
// power caps surface as a longer analytic tail rather than only as
// lost work. An M/M/k kernel with Servers == 0 tracks the alive node
// count, so repair and failure change the pooling, not just the rate.
type LatencySpec struct {
	// Kernel selects the queueing model. The zero value is the paper's
	// M/D/1.
	Kernel queueing.Spec
	// Percentile is the probed response-time percentile in [0, 100).
	// Zero defaults to 95.
	Percentile float64
}

// Validate checks the latency spec without running it.
func (l *LatencySpec) Validate() error {
	if l.Percentile < 0 || l.Percentile >= 100 || math.IsNaN(l.Percentile) {
		return fmt.Errorf("fleet: latency percentile %g outside [0, 100)", l.Percentile)
	}
	spec := l.Kernel
	if spec.Kind == queueing.KindMMK && spec.Servers == 0 {
		spec.Servers = 1 // zero means "track the alive node count"
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("fleet: latency kernel: %w", err)
	}
	return nil
}

// percentile returns the effective probe percentile.
func (l *LatencySpec) percentile() float64 {
	if l.Percentile == 0 {
		return 95
	}
	return l.Percentile
}

// kernelLabel names the kernel in summaries, rendering the alive-count
// M/M/k as "mmk(k=alive)".
func (l *LatencySpec) kernelLabel() string {
	if l.Kernel.Kind == queueing.KindMMK && l.Kernel.Servers == 0 {
		return "mmk(k=alive)"
	}
	return l.Kernel.String()
}

// NodeCount returns the total number of nodes the spec describes.
func (s *Spec) NodeCount() int {
	n := 0
	for _, g := range s.Templates {
		n += g.Count
	}
	return n
}

// Simulator is one fleet run in progress. Construct with New, execute
// with Run.
type Simulator struct {
	spec  Spec
	nodes []*node
	cal   calendar
	now   float64 // time of the calendar event being run
	log   []ChaosRecord

	// The heartbeat sweep: node beatNode beats next, at beatT; beatSeq
	// holds each node's pending heartbeat's schedule seq.
	beatT    float64
	beatNode int
	beatSeq  []uint64

	slice       float64
	horizon     float64
	utilization float64
	nominalRate float64 // healthy full-speed fleet capacity, units/s

	// Lazily integrated work flows: offered load, and the part of it
	// beyond alive capacity (lost).
	offeredRate  float64
	lostRate     float64
	flowLastT    float64
	offeredUnits stats.KahanSum
	lostUnits    stats.KahanSum

	peakPower   float64
	powerSample []PowerSample

	// Tail-latency probe accumulators (spec.Latency != nil only).
	latencyMax       float64
	latencySum       stats.KahanSum
	latencySamples   int
	latencySaturated int

	counters chaosCounters

	// telemetry (no-ops when no registry is installed)
	aliveGauge *telemetry.Gauge
	powerGauge *telemetry.Gauge
}

// PowerSample is one fleet-wide power reading, taken every Slice.
type PowerSample struct {
	Time  float64 // seconds
	Power float64 // watts, whole fleet
	Alive int     // nodes up
}

// chaosCounters tallies injected events, both timed and chaotic.
type chaosCounters struct {
	failures, repairs, throttles, caps, stragglers int
}

// New builds a simulator from the spec. The spec is copied; mutating it
// after New has no effect on the run.
func New(spec Spec) (*Simulator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	slice := float64(spec.Slice)
	if slice == 0 {
		slice = 1
	}
	s := &Simulator{
		spec:        spec,
		slice:       slice,
		horizon:     float64(spec.Duration),
		utilization: spec.Utilization,
	}
	reg := telemetry.Global()
	s.aliveGauge = reg.Gauge("fleet.alive_nodes")
	s.powerGauge = reg.Gauge("fleet.power_watts")

	slab := make([]node, spec.NodeCount())
	s.nodes = make([]*node, 0, len(slab))
	for ti, g := range spec.Templates {
		d, err := spec.Workload.Demand(g.Type.Name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < g.Count; i++ {
			n := &slab[len(s.nodes)]
			initNode(n, len(s.nodes), ti, g, d, spec.Workload, spec.Seed)
			s.nominalRate += n.nominalRate
			s.nodes = append(s.nodes, n)
		}
	}
	if s.nominalRate <= 0 {
		return nil, errors.New("fleet: fleet has zero processing capacity for this workload")
	}
	return s, nil
}

// Run executes the fleet to the horizon and returns the result. A
// simulator runs once; calling Run again returns an error.
func (s *Simulator) Run() (*Result, error) {
	if s.nodes == nil {
		return nil, errors.New("fleet: simulator already ran")
	}
	reg := telemetry.Global()
	span := reg.Tracer().Start("fleet.run").
		Arg("name", s.spec.Name).Arg("nodes", s.spec.NodeCount())
	defer span.End()
	reg.Counter("fleet.runs").Inc()

	// Seed the schedule: per node, its first heartbeat's seq (the time
	// is the grid's) and its chaos processes, then the timed scenario
	// events and the power sampler.
	s.beatSeq = make([]uint64, len(s.nodes))
	for _, n := range s.nodes {
		s.beatSeq[n.index] = s.cal.next()
		s.armChaos(n)
	}
	for i := range s.spec.Events {
		s.after(float64(s.spec.Events[i].At)-s.now, 0, evTimed, i)
	}
	s.after(0, 0, evSample, 0)
	s.rebalance(0)
	s.beatT = s.now + s.slice

	// The shared-clock loop. The next heartbeat is node beatNode's at
	// beatT, keyed (beatT, beatNode+1, its seq); it runs unless the
	// calendar head comes first under the same key. Every calendar
	// event is due by the horizon (after drops later ones), so the run
	// ends when the calendar is empty and the grid has passed the
	// horizon.
	events := uint64(0)
	for {
		beat := event{t: s.beatT, engine: s.beatNode + 1, seq: s.beatSeq[s.beatNode]}
		if len(s.cal.q) > 0 && s.cal.q[0].before(&beat) {
			ev := s.cal.pop()
			s.now = ev.t
			s.fire(ev)
		} else {
			if s.beatT > s.horizon {
				break
			}
			s.nodes[s.beatNode].advanceTo(s.beatT)
			s.beatSeq[s.beatNode] = s.cal.next()
			if s.beatNode++; s.beatNode == len(s.nodes) {
				s.beatNode, s.beatT = 0, s.beatT+s.slice
			}
		}
		events++
	}
	reg.Counter("fleet.events").Add(events)

	// Close the books at the horizon.
	for _, n := range s.nodes {
		n.advanceTo(s.horizon)
	}
	s.integrateFlows(s.horizon)

	res := s.summarize(events)
	res.ChaosLog = s.log
	res.PowerTrace = s.powerSample
	s.nodes = nil
	return res, nil
}

// after books an event of kind on engine delay seconds after now. An
// event past the horizon would never run, so it is dropped.
func (s *Simulator) after(delay float64, engine int, kind eventKind, arg int) {
	if t := s.now + delay; t <= s.horizon {
		s.cal.push(event{t: t, engine: engine, kind: kind, arg: int32(arg)})
	}
}

// fire runs one calendar event at s.now. A background chaos episode
// books its successor with a draw from the node's own stream, so each
// stream's draws follow its node's event order.
func (s *Simulator) fire(ev event) {
	c := &s.spec.Chaos
	var n *node
	if ev.engine > 0 {
		n = s.nodes[ev.engine-1]
	}
	switch ev.kind {
	case evSample:
		s.sample()
	case evTimed:
		s.applyTimedEvent(s.spec.Events[ev.arg], int(ev.arg))
	case evRevert:
		rev := s.spec.Events[ev.arg]
		rev.Action, _ = revertAction(rev.Action)
		rev.For = 0
		s.applyTimedEvent(rev, int(ev.arg))
	case evFail:
		s.applyChaos(n, ActionFail, 0)
		s.after(n.rng.ExpFloat64(1/float64(c.MTTR)), ev.engine, evRepair, 0)
	case evRepair:
		s.applyChaos(n, ActionRepair, 0)
		s.after(n.rng.ExpFloat64(1/float64(c.MTBF)), ev.engine, evFail, 0)
	case evThrottle:
		s.applyChaos(n, ActionThrottle, c.ThrottleFactor)
		s.after(float64(c.ThrottleFor), ev.engine, evUnthrottle, 0)
	case evUnthrottle:
		s.applyChaos(n, ActionUnthrottle, 1)
		s.after(n.rng.ExpFloat64(1/float64(c.ThrottleEvery)), ev.engine, evThrottle, 0)
	case evCap:
		s.applyChaos(n, ActionPowerCap, c.CapFraction*float64(n.group.Type.NominalPeak))
		s.after(float64(c.CapFor), ev.engine, evUncap, 0)
	case evUncap:
		s.applyChaos(n, ActionUncap, 0)
		s.after(n.rng.ExpFloat64(1/float64(c.CapEvery)), ev.engine, evCap, 0)
	}
}

// rebalance redistributes the offered load over the currently alive
// capacity, rate-matched exactly as the paper's static mapping: every
// alive node runs at the same fraction of its own (possibly degraded)
// capacity, so all absorb the chaos proportionally. Must be called with
// every node's accounting already advanced to now.
func (s *Simulator) rebalance(now float64) {
	offered := s.utilization * s.nominalRate
	aliveCap := 0.0
	alive := 0
	for _, n := range s.nodes {
		aliveCap += n.capacity()
		if !n.failed {
			alive++
		}
	}
	scale := 0.0
	if aliveCap > 0 {
		scale = offered / aliveCap
		if scale > 1 {
			scale = 1
		}
	}
	for _, n := range s.nodes {
		n.setLoad(scale)
	}
	s.integrateFlows(now)
	s.offeredRate = offered
	s.lostRate = offered - aliveCap*scale
	if s.lostRate < 0 {
		s.lostRate = 0
	}
	s.aliveGauge.Set(float64(alive))
}

// advanceAll brings every node's lazy accounting to now; required
// before any state change that alters load distribution.
func (s *Simulator) advanceAll(now float64) {
	for _, n := range s.nodes {
		n.advanceTo(now)
	}
}

// integrateFlows accrues the offered and lost work integrals at the
// current rates up to now.
func (s *Simulator) integrateFlows(now float64) {
	if dt := now - s.flowLastT; dt > 0 {
		s.offeredUnits.Add(s.offeredRate * dt)
		s.lostUnits.Add(s.lostRate * dt)
	}
	s.flowLastT = now
}

// sample reads fleet-wide power draw every slice, tracking the peak and
// an optional trace, and books the next sample. The trace is capped so
// multi-day scenarios cannot exhaust memory.
func (s *Simulator) sample() {
	const maxSamples = 100000
	total := 0.0
	alive := 0
	for _, n := range s.nodes {
		total += n.power
		if !n.failed {
			alive++
		}
	}
	if total > s.peakPower {
		s.peakPower = total
	}
	s.powerGauge.Set(total)
	if len(s.powerSample) < maxSamples {
		s.powerSample = append(s.powerSample, PowerSample{Time: s.now, Power: total, Alive: alive})
	}
	if s.spec.Latency != nil {
		aliveCap := 0.0
		for _, n := range s.nodes {
			aliveCap += n.capacity()
		}
		s.sampleLatency(aliveCap, alive)
	}
	s.after(s.slice, 0, evSample, 0)
}

// sampleLatency runs the analytic tail-latency probe at one power
// sample. The fleet is modeled as a single queue whose aggregate
// service rate is the alive capacity, loaded with the offered rate; a
// fleet that cannot carry the offered load (rho >= 1, or no capacity
// at all) counts a saturated sample instead of a latency. Utilization
// is quantized to 1e-4, keeping the probe a pure deterministic function
// of fleet state.
func (s *Simulator) sampleLatency(aliveCap float64, alive int) {
	ls := s.spec.Latency
	if aliveCap <= 0 {
		s.latencySaturated++
		return
	}
	rho := math.Round(s.utilization*s.nominalRate/aliveCap*1e4) / 1e4
	if rho >= 1 {
		s.latencySaturated++
		return
	}
	if rho < 1e-4 {
		rho = 1e-4 // kernels need an open arrival stream; floor near-idle fleets
	}
	spec := ls.Kernel
	if spec.Kind == queueing.KindMMK && spec.Servers == 0 {
		if alive < 1 {
			s.latencySaturated++
			return
		}
		spec.Servers = alive
	}
	k, err := spec.Build(rho, 1/aliveCap)
	if err != nil {
		s.latencySaturated++
		return
	}
	t, err := k.ResponsePercentile(ls.percentile())
	if err != nil {
		s.latencySaturated++
		return
	}
	s.latencySamples++
	s.latencySum.Add(t)
	if t > s.latencyMax {
		s.latencyMax = t
	}
}
