package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// refSim is the serial oracle the simulator's lazy accounting must
// agree with: the fleet loop as it ran before the load integral. Every
// node beats on a shared grid every slice (t1 = slice, tk+1 = tk +
// slice, in node-index order) and accrues its current draw and
// completion rate over the beat. Every state change first advances the
// whole fleet, then rebalances it node by node against a sequential sum
// of the alive capacities, and the power sampler folds each node's
// assigned draw. It shares the schedule, the chaos draws, the mutator
// and the summary with Simulator, so what it pins is the accounting.
type refSim struct {
	*Simulator
	load      []refLoad
	beatT     float64
	beatNode  int
	beatSeq   []uint64 // each node's pending heartbeat's schedule seq
	saturated bool     // some rebalance found the offered load above alive capacity
}

// refLoad is a node's assignment at the fleet's current scale.
type refLoad struct {
	power       float64 // draw, watts
	unitsPerSec float64 // completion rate
}

func newRefSim(spec Spec) (*refSim, error) {
	s, err := New(spec)
	if err != nil {
		return nil, err
	}
	r := &refSim{Simulator: s, load: make([]refLoad, len(s.nodes))}
	r.nominalRate = 0
	for i := range r.nodes {
		r.nominalRate += r.nodes[i].nominalRate
	}
	return r, nil
}

// run executes the fleet to the horizon. The next heartbeat is node
// beatNode's at beatT, keyed (beatT, beatNode+1, its seq); it runs
// unless the calendar head comes first under the same key. Only
// calendar events are counted, as Simulator counts them.
func (r *refSim) run() *Result {
	r.beatSeq = make([]uint64, len(r.nodes))
	for i := range r.nodes {
		r.beatSeq[i] = r.cal.next()
		r.armChaos(&r.nodes[i])
	}
	for i := range r.spec.Events {
		r.after(float64(r.spec.Events[i].At)-r.now, 0, evTimed, i)
	}
	r.after(0, 0, evSample, 0)
	r.rebalance()
	r.beatT = r.now + r.slice

	events := uint64(0)
	for {
		beat := event{t: r.beatT, engine: r.beatNode + 1, seq: r.beatSeq[r.beatNode]}
		if len(r.cal.q) > 0 && r.cal.q[0].before(&beat) {
			ev := r.cal.pop()
			r.now = ev.t
			r.fire(ev)
			events++
			continue
		}
		if r.beatT > r.horizon {
			break
		}
		r.advance(r.beatNode, r.beatT)
		r.beatSeq[r.beatNode] = r.cal.next()
		if r.beatNode++; r.beatNode == len(r.nodes) {
			r.beatNode, r.beatT = 0, r.beatT+r.slice
		}
	}

	r.now = r.horizon
	r.advanceAll()
	r.integrate()
	res := r.summarize(events)
	res.ChaosLog = r.log
	res.PowerTrace = r.powerSample
	return res
}

func (r *refSim) fire(ev event) {
	switch ev.kind {
	case evSample:
		r.sample()
	case evTimed, evRevert:
		r.applyTimedEvent(r.timedEvent(ev), int(ev.arg))
	default:
		n := &r.nodes[ev.engine-1]
		act, v := r.episode(ev, n)
		if !n.inState(act, v) {
			r.advanceAll()
			r.mutate(n, act, v)
			n.recalc()
			r.rebalance()
		}
	}
}

func (r *refSim) applyTimedEvent(ev TimedEvent, i int) {
	if ev.Action == ActionSetUtilization {
		r.advanceAll()
		r.utilization = ev.Utilization
		r.rebalance()
		r.log = append(r.log, ChaosRecord{Time: r.now, Node: AllNodes, Kind: string(ev.Action)})
		return
	}
	targets := ev.Target.selectNodes(r.nodes)
	if len(targets) == 0 {
		return
	}
	r.advanceAll()
	for _, n := range targets {
		r.mutate(n, ev.Action, ev.level(n))
		n.recalc()
	}
	r.rebalance()
	if _, ok := revertAction(ev.Action); ok && ev.For > 0 {
		r.after(float64(ev.For), 0, evRevert, i)
	}
}

// rebalance reassigns every node its rate-matched share. Every node's
// accounting must already be advanced to now.
func (r *refSim) rebalance() {
	offered := r.utilization * r.nominalRate
	aliveCap := 0.0
	for i := range r.nodes {
		aliveCap += r.nodes[i].capacity()
	}
	scale := 0.0
	if aliveCap > 0 {
		scale = min(offered/aliveCap, 1)
	}
	for i := range r.nodes {
		n, l := &r.nodes[i], &r.load[i]
		if n.failed {
			*l = refLoad{}
			continue
		}
		u := n.maxU * scale // busy fraction
		l.power = n.idlePower + u*n.dynPower
		l.unitsPerSec = u * n.rate
	}
	r.integrate()
	r.offeredRate = offered
	r.lostRate = max(offered-aliveCap, 0)
	if offered > aliveCap {
		r.saturated = true
	}
}

func (r *refSim) advance(i int, now float64) {
	n, l := &r.nodes[i], &r.load[i]
	dt := now - n.lastT
	if dt <= 0 {
		return
	}
	n.lastT = now
	if n.failed {
		n.down += dt
		return
	}
	n.energy.Add(l.power * dt)
	n.done.Add(l.unitsPerSec * dt)
}

func (r *refSim) advanceAll() {
	for i := range r.nodes {
		r.advance(i, r.now)
	}
}

func (r *refSim) sample() {
	total, aliveCap, alive := 0.0, 0.0, 0
	for i := range r.nodes {
		total += r.load[i].power
		aliveCap += r.nodes[i].capacity()
		if !r.nodes[i].failed {
			alive++
		}
	}
	r.record(total, aliveCap, alive)
}

// refTol bounds the relative disagreement between Simulator and the
// oracle. They differ only in how sums are grouped: per state interval
// against per heartbeat, and pairwise against sequential capacity sums.
const refTol = 1e-12

// CheckReference runs spec through Simulator and through the serial
// oracle, and fails t unless their chaos logs are identical, their
// power samples and every summary number agree within refTol relative,
// lost work within refTol of the offered work, and the simulator's run
// conserves work to 1e-9. It returns the simulator's result and
// whether the offered load ever exceeded the alive capacity. It is
// exported for the scenario-driven tests of package fleet_test, which
// can import internal/scenario.
func CheckReference(t testing.TB, spec Spec) (res *Result, saturated bool) {
	t.Helper()
	sim, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.run()
	if err := diffReference(got, want); err != nil {
		t.Fatalf("%s seed %d: simulator and serial oracle disagree: %v", spec.Name, spec.Seed, err)
	}
	s := got.Summary
	if lhs, rhs := s.OfferedUnits, s.CompletedUnits+s.LostUnits; math.Abs(lhs-rhs) > 1e-9*math.Max(math.Abs(lhs), 1) {
		t.Fatalf("%s seed %d: offered %v != completed %v + lost %v",
			spec.Name, spec.Seed, s.OfferedUnits, s.CompletedUnits, s.LostUnits)
	}
	return got, ref.saturated
}

// diffReference reports the first disagreement between a simulator
// result and the oracle's beyond the CheckReference bounds.
func diffReference(got, want *Result) error {
	if len(got.ChaosLog) != len(want.ChaosLog) {
		return fmt.Errorf("chaos log has %d records, oracle %d", len(got.ChaosLog), len(want.ChaosLog))
	}
	for i := range got.ChaosLog {
		if got.ChaosLog[i] != want.ChaosLog[i] {
			return fmt.Errorf("chaos log record %d is %+v, oracle %+v", i, got.ChaosLog[i], want.ChaosLog[i])
		}
	}
	if len(got.PowerTrace) != len(want.PowerTrace) {
		return fmt.Errorf("power trace has %d samples, oracle %d", len(got.PowerTrace), len(want.PowerTrace))
	}
	for i, g := range got.PowerTrace {
		w := want.PowerTrace[i]
		if g.Time != w.Time || g.Alive != w.Alive || !within(g.Power, w.Power, refTol*math.Max(math.Abs(g.Power), math.Abs(w.Power))) {
			return fmt.Errorf("power sample %d is %+v, oracle %+v", i, g, w)
		}
	}
	var gs, ws map[string]any
	for _, m := range []struct {
		s   Summary
		dst *map[string]any
	}{{got.Summary, &gs}, {want.Summary, &ws}} {
		b, err := json.Marshal(m.s)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, m.dst); err != nil {
			return err
		}
	}
	return diffJSON("summary", gs, ws, want.Summary.OfferedUnits)
}

// diffJSON compares two decoded summaries: numbers within refTol
// relative, lost_units within refTol of offered, everything else
// exactly.
func diffJSON(path string, got, want any, offered float64) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: %v, oracle %v", path, got, want)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("%s.%s missing, oracle %v", path, k, wv)
			}
			if err := diffJSON(path+"."+k, gv, wv, offered); err != nil {
				return err
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: %v, oracle %v", path, got, want)
		}
		for i := range w {
			if err := diffJSON(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], offered); err != nil {
				return err
			}
		}
	case float64:
		g, ok := got.(float64)
		bound := refTol * math.Max(math.Abs(g), math.Abs(w))
		if path == "summary.lost_units" {
			bound = refTol * offered
		}
		if !ok || !within(g, w, bound) {
			return fmt.Errorf("%s = %v, oracle %v", path, got, want)
		}
	default:
		if got != want {
			return fmt.Errorf("%s = %v, oracle %v", path, got, want)
		}
	}
	return nil
}

func within(a, b, bound float64) bool { return math.Abs(a-b) <= bound }
