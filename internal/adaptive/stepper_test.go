package adaptive

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// TestStepperMatchesPlanWithoutHysteresis: with hysteresis off, feeding
// a grid point-by-point through a Stepper must reproduce Plan's
// decisions exactly — same chosen index, utilization, power, response.
func TestStepperMatchesPlanWithoutHysteresis(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)
	policy := Policy{SLO: 0.5}
	grid := stats.Linspace(0.05, 0.95, 19)

	plan, err := Plan(cands, policy, grid)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(cands, policy)
	if err != nil {
		t.Fatal(err)
	}
	for i, load := range grid {
		d, err := st.Step(load)
		if err != nil {
			t.Fatal(err)
		}
		want := plan.Decisions[i]
		if d.Chosen != want.Chosen {
			t.Fatalf("load %g: stepper chose %d, plan chose %d", load, d.Chosen, want.Chosen)
		}
		if d.Chosen >= 0 && (d.Utilization != want.Utilization || d.Power != want.Power || d.Response != want.Response) {
			t.Fatalf("load %g: stepper %+v != plan %+v", load, d, want)
		}
	}
}

// TestStepperCountsSwitches: an up-down load excursion across the
// ensemble's crossover points must register switches, and the first step
// never counts as one.
func TestStepperCountsSwitches(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)
	st, err := NewStepper(cands, Policy{SLO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.1, 0.1, 0.9, 0.9, 0.1}
	var chosen []int
	for _, l := range loads {
		d, err := st.Step(l)
		if err != nil {
			t.Fatal(err)
		}
		chosen = append(chosen, d.Chosen)
	}
	if chosen[0] == chosen[2] {
		t.Skipf("candidates do not cross over between 0.1 and 0.9 (both chose %d)", chosen[0])
	}
	if st.Switches() != 2 {
		t.Fatalf("switches = %d, want 2 (choices %v)", st.Switches(), chosen)
	}
}

// TestStepperHysteresisSuppression: oscillating across a crossover
// where the running configuration stays feasible, a near-total
// hysteresis band must hold every downward switch the greedy stepper
// makes. (Upward switches forced by infeasibility are not suppressible —
// hysteresis only arbitrates between feasible alternatives.)
func TestStepperHysteresisSuppression(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)

	free, err := NewStepper(cands, Policy{SLO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := NewStepper(cands, Policy{SLO: 0.5, Hysteresis: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	// The first load picks the config for 0.5; dropping to 0.3 makes a
	// smaller config cheapest while the current one stays feasible.
	loads := []float64{0.5, 0.3, 0.5, 0.3, 0.5}
	var first int
	for i, l := range loads {
		df, err := free.Step(l)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := sticky.Step(l)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = ds.Chosen
			if df.Chosen != first {
				t.Fatalf("first decisions differ: %d vs %d", df.Chosen, first)
			}
			continue
		}
		if ds.Chosen != first {
			t.Fatalf("step %d: hysteresis 0.99 still switched %d -> %d", i, first, ds.Chosen)
		}
	}
	if free.Switches() == 0 {
		t.Skip("candidates never cross over between 0.3 and 0.5; nothing to suppress")
	}
	if sticky.Switches() != 0 {
		t.Fatalf("sticky stepper switched %d times", sticky.Switches())
	}
	if sticky.Suppressed() == 0 {
		t.Fatal("sticky stepper suppressed nothing")
	}
	if free.Suppressed() != 0 {
		t.Fatalf("free stepper reports %d suppressed switches", free.Suppressed())
	}
}

func TestStepperValidation(t *testing.T) {
	if _, err := NewStepper(nil, Policy{}); err == nil {
		t.Fatal("empty candidate set accepted")
	}
	st, err := NewStepper(candidates(t, workload.NameEP, ladderMixes), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(-0.1); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := st.Step(1.1); err == nil {
		t.Fatal("load > 1 accepted")
	}
	// A NaN load must fail the range check too: it would otherwise
	// decide a "feasible" step with NaN utilization, power and response.
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d, err := st.Step(load); err == nil {
			t.Fatalf("load %g accepted: %+v", load, d)
		}
	}
	if st.Reference() < 0 || st.refRate <= 0 {
		t.Fatalf("reference %d, rate %g", st.Reference(), st.refRate)
	}
}

// TestNaNMaxUtilizationFallsBack: a NaN utilization cap is out of range
// like any other and falls back to the 0.95 default. Kept, it would
// admit every candidate however hot it runs.
func TestNaNMaxUtilizationFallsBack(t *testing.T) {
	cands := candidates(t, workload.NameEP, ladderMixes)
	grid := stats.Linspace(0.05, 1, 20)
	want, err := Plan(cands, Policy{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	nan := Policy{MaxUtilization: math.NaN()}
	got, err := Plan(cands, nan, grid)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(cands, nan)
	if err != nil {
		t.Fatal(err)
	}
	for i, load := range grid {
		w := want.Decisions[i]
		d, err := st.Step(load)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []Decision{got.Decisions[i], d} {
			if g.Chosen != w.Chosen || g.Utilization != w.Utilization || g.Power != w.Power {
				t.Fatalf("load %g: NaN cap decided %+v, default cap %+v", load, g, w)
			}
		}
	}
}
