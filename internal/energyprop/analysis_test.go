package energyprop

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/workload"
)

func epAnalysis(t *testing.T) *Analysis {
	t.Helper()
	cat, reg := setup(t)
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	return analyze(t, cat, reg, workload.NameEP,
		cluster.FullNodes(a9, 8), cluster.FullNodes(k10, 4))
}

func TestAnalysisPowerEndpoints(t *testing.T) {
	a := epAnalysis(t)
	if got := a.PowerAt(0); stats.RelErr(got, float64(a.Result.IdlePower)) > 1e-12 {
		t.Errorf("P(0) = %g, want idle %v", got, a.Result.IdlePower)
	}
	if got := a.PowerAt(1); stats.RelErr(got, float64(a.Result.BusyPower)) > 1e-12 {
		t.Errorf("P(1) = %g, want busy %v", got, a.Result.BusyPower)
	}
	if got := a.NormalizedPowerAt(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("normalized P(1) = %g, want 1", got)
	}
}

func TestAnalysisThroughputLinear(t *testing.T) {
	a := epAnalysis(t)
	full := a.ThroughputAt(1)
	if stats.RelErr(full, float64(a.Result.Throughput)) > 1e-12 {
		t.Errorf("throughput(1) = %g, want %v", full, a.Result.Throughput)
	}
	if got := a.ThroughputAt(0.5); stats.RelErr(got, full/2) > 1e-12 {
		t.Errorf("throughput(0.5) = %g, want half of %g", got, full)
	}
	if got := a.PPRAt(0); got != 0 {
		t.Errorf("PPR at zero utilization = %g, want 0 (no work done)", got)
	}
}

func TestAnalysisQueueAndResponse(t *testing.T) {
	a := epAnalysis(t)
	q, err := a.Queue(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(q.Rho(), 0.6) > 1e-12 {
		t.Errorf("queue rho = %g", q.Rho())
	}
	r50, err := a.ResponsePercentileAt(0.6, 50)
	if err != nil {
		t.Fatal(err)
	}
	r99, err := a.ResponsePercentileAt(0.6, 99)
	if err != nil {
		t.Fatal(err)
	}
	if r50 < float64(a.Result.Time) || r99 <= r50 {
		t.Errorf("percentiles disordered: p50=%g p99=%g T=%v", r50, r99, a.Result.Time)
	}
	if _, err := a.ResponsePercentileAt(1.5, 95); err == nil {
		t.Error("utilization > 1 accepted")
	}
}

func TestAnalysisSweep(t *testing.T) {
	a := epAnalysis(t)
	grid := stats.Linspace(0.1, 1, 10)
	ys := a.Sweep(grid, a.PowerAt)
	if len(ys) != len(grid) {
		t.Fatalf("sweep length %d", len(ys))
	}
	for i, u := range grid {
		if ys[i] != a.PowerAt(u) {
			t.Fatalf("sweep[%d] mismatch", i)
		}
	}
}

func TestAnalysisString(t *testing.T) {
	a := epAnalysis(t)
	s := a.String()
	for _, frag := range []string{"EP", "A9", "K10", "DPR", "IPR", "EPM"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
}
