// Command epprop runs the energy-proportionality analysis for one
// configuration and workload: the Table 3 metrics, the power curve
// across utilization, the PPR curve and the 95th-percentile response
// time from the M/D/1 queue.
//
// Usage:
//
//	epprop -workload EP -mix 32xA9,12xK10 [-percentile 95] [-ref 32xA9,12xK10]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	wlName := flag.String("workload", "EP", "workload name")
	mix := flag.String("mix", "32xA9,12xK10", "cluster mix, e.g. 32xA9,12xK10")
	ref := flag.String("ref", "", "reference mix to normalize against (empty = own peak)")
	pct := flag.Float64("percentile", 95, "response-time percentile")
	plot := flag.Bool("plot", false, "render ASCII plots of the curves")
	frontier := flag.Bool("frontier", false, "place the mix against the Pareto frontier of its own design space")
	nodes := flag.String("nodes", "", "JSON file with extra node types")
	wls := flag.String("workloads", "", "JSON file with extra workload profiles")
	workers := flag.Int("workers", 0, "parallel workers for the percentile sweep (0 = GOMAXPROCS)")
	flag.Parse()

	if err := run(*wlName, *mix, *ref, *pct, *plot, *frontier, *nodes, *wls, *workers); err != nil {
		cli.Fatal("epprop", err)
	}
}

func run(wlName, mix, refMix string, pct float64, plot, frontier bool, nodesPath, wlsPath string, workers int) error {
	catalog, registry, err := cli.LoadEnvironment(nodesPath, wlsPath)
	if err != nil {
		return err
	}
	cfg, err := cli.ParseMix(catalog, mix, 0, 0)
	if err != nil {
		return err
	}
	wl, err := registry.Lookup(wlName)
	if err != nil {
		return err
	}
	a, err := energyprop.Analyze(cfg, wl, model.Options{}, 200)
	if err != nil {
		return err
	}
	m := a.Metrics()
	fmt.Printf("configuration: %s   workload: %s\n", cfg, wl.Name)
	fmt.Printf("idle %v   peak %v   service time %v\n",
		a.Result.IdlePower, a.Result.BusyPower, a.Result.Time)
	fmt.Printf("DPR=%.2f  IPR=%.3f  EPM=%.3f  LDR=%.3f  chordLDR=%+.3f\n\n",
		m.DPR, m.IPR, m.EPM, m.LDR, m.ChordLDR)

	var ref *energyprop.Reference
	if refMix != "" {
		refCfg, err := cli.ParseMix(catalog, refMix, 0, 0)
		if err != nil {
			return err
		}
		refA, err := energyprop.Analyze(refCfg, wl, model.Options{}, 200)
		if err != nil {
			return err
		}
		ref = &energyprop.Reference{PeakPower: float64(refA.Result.BusyPower)}
		fmt.Printf("normalizing against reference %s (peak %v)\n\n", refCfg, refA.Result.BusyPower)
	}

	// The percentile column is the expensive part of the table (one
	// root-find per utilization); fan it out before printing serially.
	us := stats.Linspace(0.1, 0.95, 18)
	resps, err := a.ResponsePercentilesAt(us, pct, workers)
	if err != nil {
		return err
	}

	fmt.Printf("%6s  %10s  %8s  %12s  %8s  %14s\n",
		"util%", "power[W]", "%peak", "PPR", "PG", fmt.Sprintf("p%.0f resp[s]", pct))
	for i, u := range us {
		norm := 100 * a.NormalizedPowerAt(u)
		pg := energyprop.PG(a.CurveRes, u)
		if ref != nil {
			norm = 100 * ref.NormalizedAt(a.CurveRes, u)
			pg = ref.PG(a.CurveRes, u)
		}
		resp := resps[i]
		marker := ""
		if pg < 0 {
			marker = "  <- sub-linear"
		}
		fmt.Printf("%6.0f  %10.2f  %8.2f  %12.5g  %+8.3f  %14.6g%s\n",
			100*u, a.PowerAt(u), norm, a.PPRAt(u), pg, resp, marker)
	}

	if frontier {
		if err := placeOnFrontier(cfg, wl); err != nil {
			return err
		}
	}

	if plot {
		grid := stats.Linspace(0.05, 1, 96)
		xs := make([]float64, len(grid))
		norm := make([]float64, len(grid))
		ideal := make([]float64, len(grid))
		for i, u := range grid {
			xs[i] = 100 * u
			ideal[i] = 100 * u
			if ref != nil {
				norm[i] = 100 * ref.NormalizedAt(a.CurveRes, u)
			} else {
				norm[i] = 100 * a.NormalizedPowerAt(u)
			}
		}
		fmt.Println()
		err := report.RenderASCII(os.Stdout, []report.Series{
			{Label: "ideal", X: xs, Y: ideal},
			{Label: cfg.String(), X: xs, Y: norm},
		}, report.PlotOptions{Width: 64, Height: 18, XLabel: "utilization %", YLabel: "% of peak power"})
		if err != nil {
			return err
		}
	}
	return nil
}

// placeOnFrontier sweeps the design space spanned by the mix's own node
// types (up to the mix's node counts, cores and DVFS free) with the
// memoized engine and reports where the mix sits relative to the
// time-energy Pareto frontier of that space.
func placeOnFrontier(cfg cluster.Config, wl *workload.Profile) error {
	limits := make([]cluster.Limit, 0, len(cfg.Groups))
	for _, g := range cfg.Groups {
		limits = append(limits, cluster.Limit{Type: g.Type, MaxNodes: g.Count})
	}
	total := cluster.SpaceSize(limits)

	var st pareto.SweepStats
	front, err := pareto.FrontierSweep(limits, wl, model.Options{},
		pareto.SweepOptions{Stats: &st})
	if err != nil {
		return err
	}
	fmt.Printf("\nfrontier of the %s design space (%d configurations, %d evaluated, %d pruned): %d points\n",
		cfg, total, st.Evaluated, st.Pruned, len(front))

	own, err := model.Evaluate(cfg, wl, model.Options{})
	if err != nil {
		return err
	}
	onFrontier := false
	for _, p := range front {
		if p.Config.Key() == cfg.Key() {
			onFrontier = true
			break
		}
	}
	if onFrontier {
		fmt.Printf("the mix is ON the frontier (T=%v E=%v)\n", own.Time, own.Energy)
	} else {
		fmt.Printf("the mix is OFF the frontier (T=%v E=%v)\n", own.Time, own.Energy)
		// The frontier is sorted by time, so the first dominator is the
		// fastest configuration beating the mix on both axes.
		for _, p := range front {
			if p.Time <= own.Time && p.Energy <= own.Energy {
				fmt.Printf("dominated by %-22s T=%v E=%v\n", p.Config, p.Time, p.Energy)
				break
			}
		}
	}
	if best, ok := pareto.MinEDP(front); ok {
		fmt.Printf("min-EDP on frontier: %-22s T=%v E=%v EDP=%.4g\n",
			best.Config, best.Time, best.Energy, best.Result.EDP())
	}
	return nil
}
