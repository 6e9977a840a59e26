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
// and their reverts) and each node's chaos episodes. Every alive node
// runs at one fleet-wide load scale of its own capacity, so the run
// keeps the scale's integral G(t) and each node accrues its energy and
// work from G only at its own state changes (node.go). An event
// therefore advances only the nodes it changes, at O(log N) each for
// their leaves of the alive-capacity tree, plus O(1) to rescale the
// fleet. Only the power sampler folds over every node, and a timed
// event scans the fleet once to resolve its target.
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
	// Slice is the fleet-wide power sampling interval. Zero defaults to
	// 1 s.
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
		return fmt.Errorf("fleet: slice %v yields more than 50M power samples over %v", s.Slice, s.Duration)
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
	nodes []node
	cal   calendar
	now   float64 // time of the calendar event being run
	log   []ChaosRecord

	slice       float64
	horizon     float64
	utilization float64
	nominalRate float64 // healthy full-speed fleet capacity, units/s

	// Alive capacity, per node in a pairwise-summed tree, and the
	// number of nodes up.
	capacity capTree
	alive    int

	// The load scale every alive node runs at, as a fraction of its own
	// capacity, and the lazily integrated flows: G = ∫ scale dt, the
	// offered load, and the part of it beyond alive capacity (lost).
	scale        float64
	g            loadIntegral
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

	s.nodes = make([]node, 0, spec.NodeCount())
	prefix := chaosPrefix(spec.Seed)
	for _, g := range spec.Templates {
		d, err := spec.Workload.Demand(g.Type.Name)
		if err != nil {
			return nil, err
		}
		healthy := healthyNode(g, d, spec.Workload)
		for range g.Count {
			i := len(s.nodes)
			s.nodes = append(s.nodes, healthy)
			n := &s.nodes[i]
			n.index = i
			n.rng.Seed(chaosStream(prefix, i))
		}
	}
	s.capacity = newCapTree(len(s.nodes), func(i int) float64 { return s.nodes[i].capacity() })
	s.alive = len(s.nodes)
	s.nominalRate = s.capacity.sum()
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

	// Every calendar event is due by the horizon (after drops later
	// ones), so the run ends when the calendar is empty.
	s.start()
	events := uint64(0)
	for len(s.cal.q) > 0 {
		s.step()
		events++
	}
	reg.Counter("fleet.events").Add(events)

	// Close the books at the horizon.
	s.now = s.horizon
	s.integrate()
	for i := range s.nodes {
		s.nodes[i].advanceTo(s.horizon, s.g)
	}

	res := s.summarize(events)
	res.ChaosLog = s.log
	res.PowerTrace = s.powerSample
	s.nodes = nil
	return res, nil
}

// start seeds the schedule: each node's chaos processes, then the
// timed scenario events and the power sampler, and sets the opening
// load scale.
func (s *Simulator) start() {
	for i := range s.nodes {
		s.armChaos(&s.nodes[i])
	}
	for i := range s.spec.Events {
		s.after(float64(s.spec.Events[i].At)-s.now, 0, evTimed, i)
	}
	s.after(0, 0, evSample, 0)
	s.rebalance()
}

// step runs the earliest calendar event; the calendar must not be
// empty.
func (s *Simulator) step() {
	ev := s.cal.pop()
	s.now = ev.t
	s.fire(ev)
}

// after books an event of kind on engine delay seconds after now. An
// event past the horizon would never run, so it is dropped.
func (s *Simulator) after(delay float64, engine int, kind eventKind, arg int) {
	if t := s.now + delay; t <= s.horizon {
		s.cal.push(event{t: t, engine: engine, kind: kind, arg: int32(arg)})
	}
}

// fire runs one calendar event at s.now.
func (s *Simulator) fire(ev event) {
	switch ev.kind {
	case evSample:
		s.sample()
	case evTimed, evRevert:
		s.applyTimedEvent(s.timedEvent(ev), int(ev.arg))
	default:
		n := &s.nodes[ev.engine-1]
		act, v := s.episode(ev, n)
		s.applyChaos(n, act, v)
	}
}

// timedEvent returns the intervention a timed or revert event applies:
// Spec.Events[arg], or its inverse.
func (s *Simulator) timedEvent(ev event) TimedEvent {
	e := s.spec.Events[ev.arg]
	if ev.kind == evRevert {
		e.Action, _ = revertAction(e.Action)
		e.For = 0
	}
	return e
}

// episode returns the state change background chaos episode ev applies
// to its node n, and books the episode's successor with a draw from
// n's own stream, so each stream's draws follow its node's event order.
func (s *Simulator) episode(ev event, n *node) (Action, float64) {
	c := &s.spec.Chaos
	switch ev.kind {
	case evFail:
		s.after(n.rng.ExpFloat64(1/float64(c.MTTR)), ev.engine, evRepair, 0)
		return ActionFail, 0
	case evRepair:
		s.after(n.rng.ExpFloat64(1/float64(c.MTBF)), ev.engine, evFail, 0)
		return ActionRepair, 0
	case evThrottle:
		s.after(float64(c.ThrottleFor), ev.engine, evUnthrottle, 0)
		return ActionThrottle, c.ThrottleFactor
	case evUnthrottle:
		s.after(n.rng.ExpFloat64(1/float64(c.ThrottleEvery)), ev.engine, evThrottle, 0)
		return ActionUnthrottle, 1
	case evCap:
		s.after(float64(c.CapFor), ev.engine, evUncap, 0)
		return ActionPowerCap, c.CapFraction * float64(n.group.Type.NominalPeak)
	default: // evUncap
		s.after(n.rng.ExpFloat64(1/float64(c.CapEvery)), ev.engine, evCap, 0)
		return ActionUncap, 0
	}
}

// integrate accrues G and the offered and lost work at the current
// rates up to now. Every change of the scale, the utilization or a
// node's state comes after it.
func (s *Simulator) integrate() {
	if dt := s.now - s.flowLastT; dt > 0 {
		s.g.add(s.scale * dt)
		s.offeredUnits.Add(s.offeredRate * dt)
		s.lostUnits.Add(s.lostRate * dt)
	}
	s.flowLastT = s.now
}

// change applies act with value v to n at now through the one mutator,
// closing n's accounts at its old state first and then rederiving it
// and its leaf of the capacity tree. The caller integrates before and
// rebalances after.
func (s *Simulator) change(n *node, act Action, v float64) {
	if n.inState(act, v) {
		return
	}
	n.advanceTo(s.now, s.g)
	s.mutate(n, act, v)
	n.recalc()
	s.capacity.set(n.index, n.capacity())
}

// rebalance sets the load scale from the offered load and the alive
// capacity, rate-matched exactly as the paper's static mapping: every
// alive node runs at the same fraction of its own (possibly degraded)
// capacity, so all absorb the chaos proportionally. Load beyond alive
// capacity is lost; within it, nothing is, so the rounding of
// aliveCap·scale against the offered rate is never booked as lost work.
func (s *Simulator) rebalance() {
	offered := s.utilization * s.nominalRate
	aliveCap := s.capacity.sum()
	s.scale = 0
	if aliveCap > 0 {
		s.scale = min(offered/aliveCap, 1)
	}
	s.offeredRate = offered
	s.lostRate = max(offered-aliveCap, 0)
	s.aliveGauge.Set(float64(s.alive))
}

// sample reads fleet-wide power draw every slice: each node's draw at
// the current scale, its rate-matched busy fraction maxU·scale above
// its idle floor, folded in node order. A failed node's derivatives
// are all 0, so it draws 0.
func (s *Simulator) sample() {
	total := 0.0
	for i := range s.nodes {
		n := &s.nodes[i]
		total += n.idlePower + n.maxU*s.scale*n.dynPower
	}
	s.record(total, s.capacity.sum(), s.alive)
}

// record takes one power sample of total watts, with aliveCap units/s
// over alive nodes up: it tracks the peak and an optional trace, runs
// the latency probe and books the next sample. The trace is capped so
// multi-day scenarios cannot exhaust memory.
func (s *Simulator) record(total, aliveCap float64, alive int) {
	const maxSamples = 100000
	if total > s.peakPower {
		s.peakPower = total
	}
	s.powerGauge.Set(total)
	if len(s.powerSample) < maxSamples {
		s.powerSample = append(s.powerSample, PowerSample{Time: s.now, Power: total, Alive: alive})
	}
	if s.spec.Latency != nil {
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
