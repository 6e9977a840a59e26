// Package analysis wires the substrates together into one driver per
// paper artifact: Tables 4-8 and Figures 2, 5-12, plus the ablations
// DESIGN.md calls out. cmd/reproduce and the benchmark harness are thin
// shells over this package.
package analysis

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/powermeter"
	"repro/internal/simulator"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Suite carries the shared experiment context.
type Suite struct {
	Catalog  *hardware.Catalog
	Registry *workload.Registry
	// Opt is the model variant (zero value = paper model).
	Opt model.Options
	// Effects and Meter configure the simulated measurement substrate.
	Effects simulator.Effects
	Meter   powermeter.Meter
	// CurvePanels is the sampling resolution of utilization curves.
	CurvePanels int
	// ProgressEvery > 0 makes the configuration-space sweeps report
	// "evaluated/total" counts to ProgressW at that count interval —
	// deterministic (count-based, never wall-clock). Zero disables.
	ProgressEvery int
	// ProgressW receives the progress lines; nil disables reporting.
	ProgressW io.Writer
}

// NewSuite builds the default paper setup: A9/K10 catalog, the six
// calibrated workloads, default simulator effects and meter.
func NewSuite() (*Suite, error) {
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Catalog:     cat,
		Registry:    reg,
		Effects:     simulator.DefaultEffects(),
		Meter:       powermeter.DefaultMeter(),
		CurvePanels: 100,
	}, nil
}

// node returns a catalog node or an error with experiment context.
func (s *Suite) node(name string) (*hardware.NodeType, error) {
	n, err := s.Catalog.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return n, nil
}

// profile returns a workload profile or an error with context.
func (s *Suite) profile(name string) (*workload.Profile, error) {
	p, err := s.Registry.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return p, nil
}

// mix builds the (wimpy, brawny) configuration used throughout the
// figures.
func (s *Suite) mix(nA9, nK10 int) (cluster.Config, error) {
	var groups []cluster.Group
	if nA9 > 0 {
		a9, err := s.node("A9")
		if err != nil {
			return cluster.Config{}, err
		}
		groups = append(groups, cluster.FullNodes(a9, nA9))
	}
	if nK10 > 0 {
		k10, err := s.node("K10")
		if err != nil {
			return cluster.Config{}, err
		}
		groups = append(groups, cluster.FullNodes(k10, nK10))
	}
	return cluster.NewConfig(groups...)
}

// progress returns a count-based progress reporter for a sweep over
// total configurations, or nil (a no-op) when reporting is disabled.
func (s *Suite) progress(label string, total int) *telemetry.Progress {
	return telemetry.NewProgress(s.ProgressW, label, int64(total), int64(s.ProgressEvery))
}

// analyze evaluates model + curve for a config/workload pair.
func (s *Suite) analyze(cfg cluster.Config, wl string) (*energyprop.Analysis, error) {
	p, err := s.profile(wl)
	if err != nil {
		return nil, err
	}
	return energyprop.Analyze(cfg, p, s.Opt, s.CurvePanels)
}

// utilGrid returns the standard 10..100% utilization grid of the
// figures, as fractions.
func utilGrid() []float64 {
	return stats.Linspace(0.10, 1.0, 19)
}

// respGrid returns the utilization grid of the response-time figures;
// it stops short of saturation where M/D/1 diverges.
func respGrid() []float64 {
	return stats.Linspace(0.20, 0.95, 16)
}
