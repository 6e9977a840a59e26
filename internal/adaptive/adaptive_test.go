package adaptive

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

func candidates(t *testing.T, wl string, mixes [][2]int) []*energyprop.Analysis {
	t.Helper()
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.Lookup(wl)
	if err != nil {
		t.Fatal(err)
	}
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	var out []*energyprop.Analysis
	for _, m := range mixes {
		var groups []cluster.Group
		if m[0] > 0 {
			groups = append(groups, cluster.FullNodes(a9, m[0]))
		}
		if m[1] > 0 {
			groups = append(groups, cluster.FullNodes(k10, m[1]))
		}
		a, err := energyprop.Analyze(cluster.MustConfig(groups...), p, model.Options{}, 100)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

var ladderMixes = [][2]int{{32, 12}, {25, 10}, {25, 8}, {25, 7}, {25, 5}}

func TestPlanPicksSmallConfigsAtLowLoad(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)
	grid := stats.Linspace(0.05, 0.9, 18)
	e, err := Plan(cands, Policy{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible(e) {
		t.Fatal("plan infeasible without SLO")
	}
	if e.Reference != 0 {
		t.Errorf("reference = %d, want the 32A9:12K10 candidate", e.Reference)
	}
	// Low load should pick the smallest (cheapest) configuration, high
	// load must fall back to bigger ones.
	first := e.Decisions[0]
	last := e.Decisions[len(e.Decisions)-1]
	if first.Chosen != len(cands)-1 {
		t.Errorf("at load %.2f chose candidate %d, want the smallest (%d)",
			first.LoadFrac, first.Chosen, len(cands)-1)
	}
	if last.Chosen == len(cands)-1 {
		t.Errorf("at load %.2f still on the smallest configuration", last.LoadFrac)
	}
	if e.Switches == 0 {
		t.Error("expected at least one configuration switch across the load range")
	}
}

func TestPlanPowerMonotoneInLoad(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)
	e, err := Plan(cands, Policy{}, stats.Linspace(0.05, 0.9, 30))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, d := range e.Decisions {
		if d.Power < prev-1e-9 {
			t.Errorf("ensemble power decreased at load %.2f: %.1f after %.1f", d.LoadFrac, d.Power, prev)
		}
		prev = d.Power
	}
}

func TestEnsembleBeatsStaticReference(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)
	e, err := Plan(cands, Policy{}, stats.Linspace(0.05, 0.9, 18))
	if err != nil {
		t.Fatal(err)
	}
	s := e.Savings()
	if s <= 0 {
		t.Errorf("adaptive savings %.3f, want positive", s)
	}
	if s > 0.6 {
		t.Errorf("adaptive savings %.3f implausibly large", s)
	}
	// The ensemble curve must be more proportional (higher EPM) than the
	// static reference's own curve.
	m, err := e.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	staticM := cands[0].Metrics()
	if m.EPM <= staticM.EPM {
		t.Errorf("ensemble EPM %.3f not above static %.3f", m.EPM, staticM.EPM)
	}
}

func TestSLOFiltersSlowCandidates(t *testing.T) {
	cands := candidates(t, workload.NameX264, ladderMixes)
	// x264 jobs take ~1-2.5s; a tight 4s p95 SLO rules out small
	// configurations at moderate load.
	loose, err := Plan(cands, Policy{}, stats.Linspace(0.1, 0.8, 8))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Plan(cands, Policy{SLO: 4}, stats.Linspace(0.1, 0.8, 8))
	if err != nil {
		t.Fatal(err)
	}
	// The SLO must be satisfiable at the low end of the load range (at
	// very high load even the reference violates it — the queueing tail
	// explodes toward saturation — so Feasible over the whole grid is
	// not expected).
	if tight.Decisions[0].Chosen < 0 {
		t.Fatal("tight plan infeasible even at the lowest load")
	}
	// Where feasible, the tight plan must never pick a smaller candidate
	// than the loose plan, and must honor the SLO.
	for i := range tight.Decisions {
		if tight.Decisions[i].Chosen < 0 {
			continue
		}
		if tight.Decisions[i].Chosen > loose.Decisions[i].Chosen {
			t.Errorf("load %.2f: SLO plan picked smaller config %d than unconstrained %d",
				tight.Decisions[i].LoadFrac, tight.Decisions[i].Chosen, loose.Decisions[i].Chosen)
		}
		if tight.Decisions[i].Response > 4+1e-9 {
			t.Errorf("load %.2f: response %.2fs violates 4s SLO", tight.Decisions[i].LoadFrac, tight.Decisions[i].Response)
		}
	}
	// And its average power is at least the unconstrained plan's.
	if tight.Savings() > loose.Savings()+1e-9 {
		t.Error("SLO-constrained plan saved more than unconstrained plan")
	}
}

func TestInfeasibleSLO(t *testing.T) {
	cands := candidates(t, workload.NameX264, ladderMixes)
	// No configuration can deliver 0.1 s responses for ~1 s jobs.
	e, err := Plan(cands, Policy{SLO: 0.1}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if feasible(e) {
		t.Error("impossible SLO reported feasible")
	}
	if e.Decisions[0].Chosen != -1 {
		t.Errorf("chosen = %d, want -1", e.Decisions[0].Chosen)
	}
}

func TestEnsembleCurveSublinearAgainstReference(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)
	e, err := Plan(cands, Policy{}, stats.Linspace(0.05, 0.95, 19))
	if err != nil {
		t.Fatal(err)
	}
	curve, err := e.Curve()
	if err != nil {
		t.Fatal(err)
	}
	ref := energyprop.Reference{PeakPower: float64(cands[0].Result.BusyPower)}
	sub := 0
	for _, u := range stats.Linspace(0.1, 0.9, 9) {
		if ref.SublinearAt(curve, u) {
			sub++
		}
	}
	if sub == 0 {
		t.Error("adaptive ensemble never sub-linear against the reference peak")
	}
}

// TestHysteresisReducesSwitching: a hysteresis margin can only reduce
// the number of configuration switches, at a bounded power cost.
func TestHysteresisReducesSwitching(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)
	grid := stats.Linspace(0.05, 0.9, 35)
	greedy, err := Plan(cands, Policy{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := Plan(cands, Policy{Hysteresis: 0.10}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if sticky.Switches > greedy.Switches {
		t.Errorf("hysteresis increased switches: %d > %d", sticky.Switches, greedy.Switches)
	}
	if !feasible(sticky) {
		t.Error("hysteresis plan infeasible")
	}
	// The power cost of stickiness is bounded by the margin.
	if greedy.Savings()-sticky.Savings() > 0.10 {
		t.Errorf("hysteresis cost %.3f exceeds the 10%% margin",
			greedy.Savings()-sticky.Savings())
	}
	// A full-margin hysteresis freezes the first feasible choice until
	// capacity forces a change; switches still happen on capacity
	// grounds only.
	frozen, err := Plan(cands, Policy{Hysteresis: 0.99}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Switches > sticky.Switches {
		t.Errorf("stronger hysteresis switched more: %d > %d", frozen.Switches, sticky.Switches)
	}
}

func TestRenderTable(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes[:3])
	plan, err := Plan(cands, Policy{}, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := plan.RenderTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"Adaptive configuration plan", "20%", "80%", "A9"} {
		if !strings.Contains(out, frag) {
			t.Errorf("plan table missing %q:\n%s", frag, out)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes[:2])
	if _, err := Plan(nil, Policy{}, []float64{0.5}); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := Plan(cands, Policy{}, nil); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Plan(cands, Policy{}, []float64{0}); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := Plan(cands, Policy{}, []float64{1.5}); err == nil {
		t.Error("load > 1 accepted")
	}
	if _, err := Plan(cands, Policy{}, []float64{0.8, 0.2}); err == nil {
		t.Error("descending grid accepted")
	}
	for _, grid := range [][]float64{{math.NaN()}, {0.2, math.NaN()}, {math.NaN(), 0.8}} {
		if e, err := Plan(cands, Policy{SLO: 0.5}, grid); err == nil {
			t.Errorf("grid %v accepted: %+v", grid, e.Decisions)
		}
	}
}

// feasible reports whether every grid point of e found a configuration.
func feasible(e *Ensemble) bool {
	for _, d := range e.Decisions {
		if d.Chosen < 0 {
			return false
		}
	}
	return true
}
