package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fleet"
	"repro/internal/hardware"
	"repro/internal/pareto"
	"repro/internal/queueing"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// golden_test.go pins the rendered paper artifacts (Table 7, Table 8,
// and the Figure 9/10 Pareto sub-linearity classification) and the
// fleet simulator's seeded scenario runs to files in testdata/. The analytical pipeline is fully deterministic, so any
// diff here is a real behavioural change, not noise. Regenerate with
//
//	go test -run TestGolden -update ./...
//
// and review the diff like any other code change. The seeded Table 4
// simulator comparison is deliberately excluded: its whole point is
// model-versus-simulation error, which its own statistical tests bound.
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenSuite builds the default paper suite once for all golden tests.
var goldenSuite = sync.OnceValues(analysis.NewSuite)

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file instead when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	// Point at the first differing line to keep failures readable.
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "<missing>", "<missing>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %q\nwant: %q\n(re-run with -update to accept)",
				path, i+1, g, w)
		}
	}
	t.Fatalf("%s differs (line split hides it; re-run with -update to accept)", path)
}

func TestGoldenTable7(t *testing.T) {
	s, err := goldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Table7()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := analysis.RenderMetricsRows(&buf, "Table 7: single-node proportionality metrics", rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table7", buf.String())
}

func TestGoldenTable8(t *testing.T) {
	s, err := goldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Table8()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := analysis.RenderMetricsRows(&buf, "Table 8: 1 kW ladder proportionality metrics", rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table8", buf.String())
}

func TestGoldenParetoSublinear(t *testing.T) {
	s, err := goldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	fig, err := s.FigurePareto("EP", 6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "workload=%s reference=%s sublinear=%d/%d\n",
		fig.Workload, fig.Reference.String(), fig.SublinearCount(), len(fig.Frontier))
	for i, pt := range fig.Frontier {
		fmt.Fprintf(&buf, "%-16s time=%.6g s energy=%.6g J sublinear=%v\n",
			pt.Config.String(), float64(pt.Time), float64(pt.Energy), fig.Sublinear[i])
	}
	checkGolden(t, "pareto_ep", buf.String())
}

// goldenKernelFrontier renders the EP frontier annotated with tail
// latencies under a ladder of kernel parameterizations — the small
// M/G/1 and M/M/k frontier sweeps the kernel goldens pin. Any change
// in a kernel's math moves these bytes.
func goldenKernelFrontier(t *testing.T, name, header string, specs []queueing.Spec, labels []string) {
	t.Helper()
	s, err := goldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	fig, err := s.FigurePareto("EP", 6)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, len(specs))
	for i, spec := range specs {
		cols[i], err = pareto.AnnotateLatencies(context.Background(), fig.Frontier, 0.7, 95, spec, 0)
		if err != nil {
			t.Fatalf("annotating %s: %v", spec, err)
		}
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s u=0.7 p=95 workload=%s points=%d\n", header, fig.Workload, len(fig.Frontier))
	for i, pt := range fig.Frontier {
		fmt.Fprintf(&buf, "%-16s time=%.6g s", pt.Config.String(), float64(pt.Time))
		for c := range specs {
			fmt.Fprintf(&buf, " p95[%s]=%.9g", labels[c], cols[c][i])
		}
		fmt.Fprintln(&buf)
	}
	checkGolden(t, name, buf.String())
}

func TestGoldenKernelFrontierMG1(t *testing.T) {
	goldenKernelFrontier(t, "kernel_frontier_mg1", "kernel=mg1",
		[]queueing.Spec{
			{Kind: queueing.KindMG1, SCV: 0},
			{Kind: queueing.KindMG1, SCV: 1},
			{Kind: queueing.KindMG1, SCV: 4},
		},
		[]string{"scv=0", "scv=1", "scv=4"})
}

func TestGoldenKernelFrontierMMK(t *testing.T) {
	goldenKernelFrontier(t, "kernel_frontier_mmk", "kernel=mmk",
		[]queueing.Spec{
			{Kind: queueing.KindMMK, Servers: 1},
			{Kind: queueing.KindMMK, Servers: 4},
			{Kind: queueing.KindMMK, Servers: 16},
		},
		[]string{"k=1", "k=4", "k=16"})
}

// TestGoldenFleetScenarios pins the fleet simulator's output: for every
// shipped scenario at three seeds, and for chaos-fleet.yaml cut to
// other sizes, horizons and slices, the summary JSON and the SHA-256 of
// the chaos log and power trace JSON. A run is a pure function of its
// spec, so any change here is a change in event order or arithmetic.
func TestGoldenFleetScenarios(t *testing.T) {
	catalog := hardware.DefaultCatalog()
	registry, err := workload.PaperRegistry(catalog)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files (%v)", err)
	}
	type variant struct {
		label string
		path  string
		cut   func(*scenario.Scenario)
	}
	var variants []variant
	for _, p := range paths {
		variants = append(variants, variant{label: filepath.Base(p), path: p, cut: func(*scenario.Scenario) {}})
	}
	chaos := filepath.Join("examples", "scenarios", "chaos-fleet.yaml")
	for _, c := range []struct {
		nodes    int
		duration units.Seconds
		slice    units.Seconds
	}{
		{1200, 180, 0},
		{50, 2 * 3600, 0.5},
		{300, 3600, 7},
	} {
		label := fmt.Sprintf("chaos-fleet.yaml nodes=%d duration=%gs", c.nodes, float64(c.duration))
		if c.slice > 0 {
			label += fmt.Sprintf(" slice=%gs", float64(c.slice))
		}
		variants = append(variants, variant{label: label, path: chaos, cut: func(sc *scenario.Scenario) {
			sc.Nodes, sc.Duration = c.nodes, c.duration
			if c.slice > 0 {
				sc.Slice = c.slice
			}
		}})
	}

	hash := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b))
	}
	var buf bytes.Buffer
	for _, v := range variants {
		sc, err := scenario.Load(v.path)
		if err != nil {
			t.Fatal(err)
		}
		v.cut(sc)
		base := sc.Seed
		for _, seed := range []uint64{base, base + 1, base + 2} {
			sc.Seed = seed
			spec, err := sc.Build(catalog, registry)
			if err != nil {
				t.Fatalf("%s: %v", v.label, err)
			}
			sim, err := fleet.New(spec)
			if err != nil {
				t.Fatalf("%s: %v", v.label, err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatalf("%s: %v", v.label, err)
			}
			sum, err := json.Marshal(res.Summary)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s seed=%d\n  summary %s\n  chaos_log %d records sha256 %s\n  power_trace %d samples sha256 %s\n",
				v.label, seed, sum, len(res.ChaosLog), hash(res.ChaosLog), len(res.PowerTrace), hash(res.PowerTrace))
		}
	}
	checkGolden(t, "fleet_scenarios", buf.String())
}
