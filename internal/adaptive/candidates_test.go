package adaptive

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestFrontierCandidates: the helper returns analyzed frontier points in
// frontier order (time ascending, energy descending) and they plug
// straight into Plan.
func TestFrontierCandidates(t *testing.T) {
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	limits := []cluster.Limit{
		{Type: a9, MaxNodes: 8},
		{Type: k10, MaxNodes: 4},
	}

	cands, err := FrontierCandidates(limits, wl, model.Options{}, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 || len(cands) > 4 {
		t.Fatalf("got %d candidates, want 2..4", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Result.Time <= cands[i-1].Result.Time {
			t.Errorf("candidate %d time %v not after %v — frontier order lost",
				i, cands[i].Result.Time, cands[i-1].Result.Time)
		}
		if cands[i].Result.Energy >= cands[i-1].Result.Energy {
			t.Errorf("candidate %d energy %v not below %v — not a frontier walk",
				i, cands[i].Result.Energy, cands[i-1].Result.Energy)
		}
	}

	plan, err := Plan(cands, Policy{}, []float64{0.2, 0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Error("frontier candidates left grid points infeasible")
	}

	if _, err := FrontierCandidates(limits, wl, model.Options{}, 1, 50); err == nil {
		t.Error("n=1 should be rejected")
	}
}

func TestThinIndices(t *testing.T) {
	cases := []struct {
		m, n int
		want []int
	}{
		{3, 5, []int{0, 1, 2}},
		{5, 5, []int{0, 1, 2, 3, 4}},
		{10, 3, []int{0, 4, 9}},
		{10, 2, []int{0, 9}},
		{1, 4, []int{0}},
	}
	for _, c := range cases {
		got := thinIndices(c.m, c.n)
		if len(got) != len(c.want) {
			t.Errorf("thinIndices(%d,%d) = %v, want %v", c.m, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("thinIndices(%d,%d) = %v, want %v", c.m, c.n, got, c.want)
				break
			}
		}
	}
}
