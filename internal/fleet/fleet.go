// Package fleet promotes the per-node measurement substrate
// (internal/des + internal/simulator) to a shared-clock multi-node
// fleet simulator: thousands of heterogeneous nodes, each owning its
// own discrete-event engine, advanced in global timestamp order by a
// coordinator that repeatedly selects the engine whose next event is
// earliest (the HasPendingEvents / PeekNextEventTime / ProcessNextEvent
// primitives of internal/des).
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
// Determinism contract: a fleet run is a pure function of its Spec
// (including Seed). Events across engines are ordered by (virtual
// time, engine index, per-engine schedule order); chaos draws come
// from per-node streams derived only from (Seed, node index); and all
// summary aggregation iterates in node-index or sorted-type order.
// Two runs of the same Spec produce bitwise-identical summaries.
package fleet

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/des"
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
	// Slice is the heartbeat period of each node's engine and the
	// fleet-wide power sampling interval. Zero defaults to 1 s.
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
	// order on the coordinator engine.
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
	if s.Slice < 0 || (s.Slice > 0 && s.Duration/s.Slice > 50e6) {
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
	coord *des.Engine // engine 0: scenario events, chaos-free fleet work
	heap  engineHeap

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
		coord:       des.New(),
		slice:       slice,
		horizon:     float64(spec.Duration),
		utilization: spec.Utilization,
	}
	reg := telemetry.Global()
	s.aliveGauge = reg.Gauge("fleet.alive_nodes")
	s.powerGauge = reg.Gauge("fleet.power_watts")

	for ti, g := range spec.Templates {
		d, err := spec.Workload.Demand(g.Type.Name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < g.Count; i++ {
			n := newNode(len(s.nodes), ti, g, d, spec.Workload, spec.Seed)
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

	var log []ChaosRecord
	record := func(r ChaosRecord) { log = append(log, r) }

	// Seed the engines: heartbeats and chaos streams per node, timed
	// scenario events and the fleet power sampler on the coordinator.
	for _, n := range s.nodes {
		n.scheduleHeartbeat(s.slice)
		s.armChaos(n, record)
	}
	s.scheduleTimedEvents(record)
	s.schedulePowerSampler()
	s.rebalance(0)

	// The shared-clock loop: engine 0 is the coordinator, engines 1..N
	// the nodes. Repeatedly advance the engine whose next event is
	// earliest; ties break by engine index, making the interleaving a
	// pure function of the spec.
	engines := make([]stepEngine, 0, len(s.nodes)+1)
	engines = append(engines, stepEngine{eng: s.coord})
	for _, n := range s.nodes {
		engines = append(engines, stepEngine{eng: n.eng})
	}
	s.heap.init(engines)

	events := uint64(0)
	for {
		idx, t, ok := s.heap.min()
		if !ok || t > s.horizon {
			break
		}
		engines[idx].eng.ProcessNextEvent()
		events++
		// Only the processed engine may have changed its own queue:
		// actions schedule exclusively on the engine that runs them.
		s.heap.fix(idx)
	}

	// Close the books at the horizon.
	for _, n := range s.nodes {
		n.advanceTo(s.horizon)
	}
	s.integrateFlows(s.horizon)

	res := s.summarize(events)
	res.ChaosLog = log
	res.PowerTrace = s.powerSample
	s.nodes = nil
	return res, nil
}

// stepEngine pairs an engine with its heap bookkeeping.
type stepEngine struct {
	eng *des.Engine
}

// engineHeap is an indexed min-heap over engines keyed by next event
// time, ties broken by engine index. Engines with no pending events
// leave the heap and re-enter on fix if they gained events.
type engineHeap struct {
	engines []stepEngine
	keys    []float64 // next event time per heap slot
	idx     []int     // heap slot -> engine index
	pos     []int     // engine index -> heap slot (-1 when absent)
}

func (h *engineHeap) init(engines []stepEngine) {
	h.engines = engines
	h.keys = h.keys[:0]
	h.idx = h.idx[:0]
	h.pos = make([]int, len(engines))
	for i := range h.pos {
		h.pos[i] = -1
	}
	for i := range engines {
		if t, ok := engines[i].eng.PeekNextEventTime(); ok {
			h.pos[i] = len(h.idx)
			h.keys = append(h.keys, t)
			h.idx = append(h.idx, i)
		}
	}
	heap.Init(h)
}

func (h *engineHeap) Len() int { return len(h.idx) }
func (h *engineHeap) Less(i, j int) bool {
	if h.keys[i] != h.keys[j] {
		return h.keys[i] < h.keys[j]
	}
	return h.idx[i] < h.idx[j]
}
func (h *engineHeap) Swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.pos[h.idx[i]] = i
	h.pos[h.idx[j]] = j
}
func (h *engineHeap) Push(x any) {
	i := x.(int)
	t, _ := h.engines[i].eng.PeekNextEventTime()
	h.pos[i] = len(h.idx)
	h.keys = append(h.keys, t)
	h.idx = append(h.idx, i)
}
func (h *engineHeap) Pop() any {
	n := len(h.idx) - 1
	i := h.idx[n]
	h.pos[i] = -1
	h.idx = h.idx[:n]
	h.keys = h.keys[:n]
	return i
}

// min returns the engine index and key of the earliest pending event.
func (h *engineHeap) min() (int, float64, bool) {
	if len(h.idx) == 0 {
		return 0, 0, false
	}
	return h.idx[0], h.keys[0], true
}

// fix re-reads engine i's next event time and restores heap order,
// inserting or removing the engine as its queue filled or drained.
func (h *engineHeap) fix(i int) {
	t, ok := h.engines[i].eng.PeekNextEventTime()
	slot := h.pos[i]
	switch {
	case ok && slot >= 0:
		h.keys[slot] = t
		heap.Fix(h, slot)
	case ok && slot < 0:
		heap.Push(h, i)
	case !ok && slot >= 0:
		// Drained: remove by swapping to the end.
		n := len(h.idx) - 1
		h.Swap(slot, n)
		h.pos[i] = -1
		h.idx = h.idx[:n]
		h.keys = h.keys[:n]
		if slot < n {
			heap.Fix(h, slot)
		}
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

// schedulePowerSampler samples fleet-wide power draw every slice on the
// coordinator engine, tracking the peak and an optional trace. The
// trace is capped so multi-day scenarios cannot exhaust memory.
func (s *Simulator) schedulePowerSampler() {
	const maxSamples = 100000
	var sample func()
	sample = func() {
		now := s.coord.Now()
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
			s.powerSample = append(s.powerSample, PowerSample{Time: now, Power: total, Alive: alive})
		}
		if s.spec.Latency != nil {
			aliveCap := 0.0
			for _, n := range s.nodes {
				aliveCap += n.capacity()
			}
			s.sampleLatency(aliveCap, alive)
		}
		if next := now + s.slice; next <= s.horizon {
			if _, err := s.coord.Schedule(s.slice, sample); err != nil {
				panic(err)
			}
		}
	}
	if _, err := s.coord.Schedule(0, sample); err != nil {
		panic(err)
	}
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
