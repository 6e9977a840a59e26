// Command sweetspot recommends a cluster configuration for a workload
// under an execution-time deadline, an energy budget and a peak-power
// budget — the paper's "sweet region" decision (Section I: "for a given
// application with a time deadline and energy budget, it is non-trivial
// to determine an energy-proportional configuration among the large
// system configuration space").
//
// Usage:
//
//	sweetspot -workload blackscholes -deadline 5s [-energy 3kJ] [-power 1000]
//	          [-maxA9 32] [-maxK10 12] [-dvfs]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func main() {
	wlName := flag.String("workload", "blackscholes", "workload name")
	deadline := flag.Duration("deadline", 5*time.Second, "execution-time deadline per job")
	energyJ := flag.Float64("energy", 0, "energy budget per job in joules (0 = unconstrained)")
	powerW := flag.Float64("power", 0, "peak-power budget in watts incl. switches (0 = unconstrained)")
	maxA9 := flag.Int("maxA9", 32, "maximum wimpy nodes")
	maxK10 := flag.Int("maxK10", 12, "maximum brawny nodes")
	dvfs := flag.Bool("dvfs", false, "also explore reduced cores and frequencies")
	noPrune := flag.Bool("noprune", false, "disable bound-based subtree pruning in the sweep")
	nodes := flag.String("nodes", "", "JSON file with extra node types")
	wls := flag.String("workloads", "", "JSON file with extra workload profiles")
	progress := flag.Int("progress", 0, "print exploration progress to stderr every N configurations (0 disables)")
	tel := cli.AddTelemetryFlags(nil)
	flag.Parse()

	if err := tel.Start(); err != nil {
		cli.Fatal("sweetspot", err)
	}
	err := run(*wlName, *deadline, *energyJ, *powerW, *maxA9, *maxK10, *dvfs, *noPrune, *nodes, *wls, *progress)
	if cerr := tel.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		cli.Fatal("sweetspot", err)
	}
}

func run(wlName string, deadline time.Duration, energyJ, powerW float64, maxA9, maxK10 int, dvfs, noPrune bool, nodesPath, wlsPath string, progressEvery int) error {
	catalog, registry, err := cli.LoadEnvironment(nodesPath, wlsPath)
	if err != nil {
		return err
	}
	wl, err := registry.Lookup(wlName)
	if err != nil {
		return err
	}
	a9, err := catalog.Lookup("A9")
	if err != nil {
		return err
	}
	k10, err := catalog.Lookup("K10")
	if err != nil {
		return err
	}
	sw := hardware.DefaultSwitch()

	limits := []cluster.Limit{
		{Type: a9, MaxNodes: maxA9, FixCoresAndFreq: !dvfs},
		{Type: k10, MaxNodes: maxK10, FixCoresAndFreq: !dvfs},
	}
	total := cluster.SpaceSize(limits)
	fmt.Printf("exploring %d configurations for %s...\n", total, wl.Name)
	pr := telemetry.NewProgress(os.Stderr, "sweetspot", int64(total), int64(progressEvery))

	// The peak-power budget prunes before model evaluation via the sweep
	// filter; everything surviving it fans out across the worker pool.
	var filter func(cluster.Config) bool
	if powerW > 0 {
		filter = func(cfg cluster.Config) bool {
			peak := float64(cfg.NominalPeak()) + float64(sw.Power(cfg.Count("A9")))
			return peak <= powerW
		}
	}
	// Install an ephemeral registry when telemetry is off so the pruning
	// counter is still observable in the summary line.
	reg := telemetry.Global()
	if reg == nil {
		reg = telemetry.New()
		telemetry.SetGlobal(reg)
		defer telemetry.SetGlobal(nil)
	}
	prunedC := reg.Counter("pareto.configs_pruned")
	prunedBefore := prunedC.Value()
	frontier, err := pareto.FrontierSweep(limits, wl, model.Options{}, pareto.SweepOptions{
		Progress: pr,
		Filter:   filter,
		NoPrune:  noPrune,
	})
	if err != nil {
		return err
	}
	if pruned := prunedC.Value() - prunedBefore; pruned > 0 {
		fmt.Printf("pruned %d configurations via frontier lower bounds\n", pruned)
	}
	if len(frontier) == 0 {
		return fmt.Errorf("no feasible configuration under the power budget")
	}

	dl := units.Seconds(deadline.Seconds())
	var budget units.Joules
	if energyJ > 0 {
		budget = units.Joules(energyJ)
	}
	sweet := pareto.SweetRegion(frontier, dl, budget)
	fmt.Printf("Pareto frontier: %d configurations; sweet region under %v deadline", len(frontier), dl)
	if budget > 0 {
		fmt.Printf(" and %v energy budget", budget)
	}
	fmt.Printf(": %d\n\n", len(sweet))

	if len(sweet) == 0 {
		fmt.Println("no configuration satisfies the constraints; closest frontier points:")
		for i, p := range frontier {
			if i >= 5 {
				break
			}
			fmt.Printf("  %-22s T=%-10v E=%v\n", p.Config, p.Time, p.Energy)
		}
		return fmt.Errorf("constraints infeasible")
	}

	best, ok := pareto.MinEnergyUnderDeadline(sweet, dl)
	if !ok {
		return fmt.Errorf("internal: sweet region without deadline-feasible point")
	}
	fmt.Println("sweet region (deadline-feasible frontier):")
	for _, p := range sweet {
		marker := " "
		if p.Config.Key() == best.Config.Key() {
			marker = "*"
		}
		fmt.Printf(" %s %-22s T=%-10v E=%-10v peak=%v\n",
			marker, p.Config, p.Time, p.Energy, p.Result.BusyPower)
	}

	a, err := energyprop.Analyze(best.Config, wl, model.Options{}, 100)
	if err != nil {
		return err
	}
	m := a.Metrics()
	fmt.Printf("\nrecommended: %s\n", best.Config)
	fmt.Printf("  time %v (headroom %.1f%%), energy %v\n",
		best.Time, 100*(1-float64(best.Time)/math.Max(float64(dl), 1e-12)), best.Energy)
	fmt.Printf("  idle %v, peak %v, DPR %.1f%%, IPR %.3f\n",
		a.Result.IdlePower, a.Result.BusyPower, m.DPR, m.IPR)
	p95, err := a.ResponsePercentileAt(0.7, 95)
	if err == nil {
		fmt.Printf("  p95 response at 70%% utilization: %.4g s\n", p95)
	}
	return nil
}
