package analysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestFigureDriversRejectUnknownWorkload(t *testing.T) {
	s := suite(t)
	if _, err := s.Figure5("nope"); err == nil {
		t.Error("Figure5 accepted unknown workload")
	}
	if _, err := s.Figure6("nope"); err == nil {
		t.Error("Figure6 accepted unknown workload")
	}
	if _, err := s.Figure7("nope"); err == nil {
		t.Error("Figure7 accepted unknown workload")
	}
	if _, err := s.Figure8("nope"); err == nil {
		t.Error("Figure8 accepted unknown workload")
	}
	if _, err := s.FigurePareto("nope", 4); err == nil {
		t.Error("FigurePareto accepted unknown workload")
	}
	if _, err := s.FigureResponse("nope", 95); err == nil {
		t.Error("FigureResponse accepted unknown workload")
	}
	if _, err := s.FullSpaceFrontier("nope", 2, 2); err == nil {
		t.Error("FullSpaceFrontier accepted unknown workload")
	}
}

// TestFigure5AllWorkloads: the single-node proportionality curves exist
// and are well-formed for every paper workload, not only the three the
// paper plots.
func TestFigure5AllWorkloads(t *testing.T) {
	s := suite(t)
	for _, wl := range workload.PaperNames() {
		series, err := s.Figure5(wl)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(series) != 3 {
			t.Fatalf("%s: %d series", wl, len(series))
		}
		for _, ser := range series {
			if err := ser.Validate(); err != nil {
				t.Errorf("%s/%s: %v", wl, ser.Label, err)
			}
			// Percent-of-peak curves live in (0, 100].
			for i, y := range ser.Y {
				if y <= 0 || y > 100+1e-9 {
					t.Errorf("%s/%s: y[%d] = %g out of (0,100]", wl, ser.Label, i, y)
				}
			}
			// Terminal point is exactly the peak.
			if ser.Label != "Ideal" && math.Abs(ser.Y[len(ser.Y)-1]-100) > 1e-9 {
				t.Errorf("%s/%s: curve does not end at 100%%", wl, ser.Label)
			}
		}
	}
}

// TestFigureParetoThinningKeepsEndpoints: the plotted subset always
// includes the fastest and the cheapest frontier configuration.
func TestFigureParetoThinningKeepsEndpoints(t *testing.T) {
	s := suite(t)
	full, err := s.FigurePareto(workload.NameEP, 100)
	if err != nil {
		t.Fatal(err)
	}
	thin, err := s.FigurePareto(workload.NameEP, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(thin.Frontier) > 3 {
		t.Errorf("thinned to %d, want <= 3", len(thin.Frontier))
	}
	first := full.Frontier[0].Config.Key()
	last := full.Frontier[len(full.Frontier)-1].Config.Key()
	keys := map[string]bool{}
	for _, pt := range thin.Frontier {
		keys[pt.Config.Key()] = true
	}
	if !keys[first] || !keys[last] {
		t.Errorf("thinning dropped an endpoint: kept %v", keys)
	}
}

func TestFrontierSummaryFormat(t *testing.T) {
	s := suite(t)
	fig, err := s.FigurePareto(workload.NameEP, 4)
	if err != nil {
		t.Fatal(err)
	}
	lines := FrontierSummary(fig.Frontier)
	if len(lines) != len(fig.Frontier) {
		t.Fatalf("%d lines for %d points", len(lines), len(fig.Frontier))
	}
	for _, l := range lines {
		if !strings.Contains(l, "T=") || !strings.Contains(l, "E=") {
			t.Errorf("summary line %q missing fields", l)
		}
	}
}

func TestResponseSpreadErrors(t *testing.T) {
	if _, err := ResponseSpread(nil); err == nil {
		t.Error("empty series accepted")
	}
	ragged := []report.Series{
		{Label: "a", X: []float64{1, 2}, Y: []float64{1, 2}},
		{Label: "b", X: []float64{1}, Y: []float64{1}},
	}
	if _, err := ResponseSpread(ragged); err == nil {
		t.Error("ragged series accepted")
	}
}

func TestRenderTable6Content(t *testing.T) {
	s := suite(t)
	rows, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderTable6(&b, rows); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"(random numbers/s)/W", "6.048e+06", "1091"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table 6 render missing %q", frag)
		}
	}
}

// TestResponsePercentilesAtMatchesPointwise pins the grid form to one
// scalar solve per point, bit for bit, on the Figure 11 and 12 mixes at
// the figures' grid and epprop's, and checks that a point past
// saturation fails the whole grid with its utilization named.
func TestResponsePercentilesAtMatchesPointwise(t *testing.T) {
	s := suite(t)
	grids := [][]float64{respGrid(), stats.Linspace(0.1, 0.95, 18)}
	for _, wl := range []string{workload.NameEP, workload.NameX264} {
		for _, mix := range ResponseMixes {
			cfg, err := s.mix(mix[0], mix[1])
			if err != nil {
				t.Fatal(err)
			}
			a, err := s.analyze(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			for _, grid := range grids {
				for _, p := range []float64{50, 95, 99} {
					got, err := a.ResponsePercentilesAt(grid, p)
					if err != nil {
						t.Fatalf("%s on %s p%g: %v", wl, cfg, p, err)
					}
					if len(got) != len(grid) {
						t.Fatalf("%s on %s: %d values for %d points", wl, cfg, len(got), len(grid))
					}
					for i, u := range grid {
						want, err := a.ResponsePercentileAt(u, p)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Errorf("%s on %s u=%g p%g: grid %.17g, point %.17g", wl, cfg, u, p, got[i], want)
						}
					}
				}
			}
			if _, err := a.ResponsePercentilesAt([]float64{0.5, 1}, 95); err == nil || !strings.Contains(err.Error(), "u=1") {
				t.Errorf("%s on %s: saturated grid point: err = %v", wl, cfg, err)
			}
		}
	}
}
