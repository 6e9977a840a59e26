// Command eptrace plays a synthetic datacenter load trace against a set
// of cluster configurations, comparing a static deployment with dynamic
// configuration switching (see internal/loadtrace and the paper's
// Section I note that dynamic adaptation complements its static
// analysis).
//
// Usage:
//
//	eptrace -workload EP -mixes "32xA9,12xK10;25xA9,8xK10;25xA9,5xK10"
//	        -shape diurnal -mean 0.3 -amplitude 0.25 [-slo 200ms]
//	        [-duration 24h] [-step 15m] [-hysteresis 0.05]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/loadtrace"
	"repro/internal/model"
)

func main() {
	wlName := flag.String("workload", "EP", "workload name")
	mixes := flag.String("mixes", "32xA9,12xK10;25xA9,8xK10;25xA9,5xK10", "semicolon-separated candidate mixes; the fastest is the static reference")
	frontierN := flag.Int("frontier-candidates", 0, "derive N candidates from the Pareto frontier of the -maxA9/-maxK10 space instead of -mixes (0 disables)")
	maxA9 := flag.Int("maxA9", 32, "maximum wimpy nodes for -frontier-candidates")
	maxK10 := flag.Int("maxK10", 12, "maximum brawny nodes for -frontier-candidates")
	dvfs := flag.Bool("dvfs", false, "let -frontier-candidates explore reduced cores and frequencies")
	shapeName := flag.String("shape", "diurnal", "load shape: diurnal, flashcrowd or steps")
	mean := flag.Float64("mean", 0.3, "diurnal mean load fraction")
	amplitude := flag.Float64("amplitude", 0.25, "diurnal amplitude")
	base := flag.Float64("base", 0.2, "flashcrowd base load")
	peak := flag.Float64("peak", 0.9, "flashcrowd peak load")
	levels := flag.String("levels", "0.15,0.55,0.85,0.45", "steps: comma-separated load levels")
	duration := flag.Duration("duration", 24*time.Hour, "trace duration")
	step := flag.Duration("step", 15*time.Minute, "reconfiguration epoch")
	slo := flag.Duration("slo", 0, "p95 response SLO (0 disables)")
	hysteresis := flag.Float64("hysteresis", 0.05, "switching hysteresis margin")
	showPlan := flag.Bool("plan", false, "print the per-load configuration plan table")
	nodes := flag.String("nodes", "", "JSON file with extra node types")
	wls := flag.String("workloads", "", "JSON file with extra workload profiles")
	tel := cli.AddTelemetryFlags(nil)
	flag.Parse()

	if err := tel.Start(); err != nil {
		cli.Fatal("eptrace", err)
	}
	err := run(*wlName, *mixes, *shapeName, *mean, *amplitude, *base, *peak, *levels,
		*duration, *step, *slo, *hysteresis, *showPlan, *frontierN, *maxA9, *maxK10, *dvfs, *nodes, *wls)
	if cerr := tel.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		cli.Fatal("eptrace", err)
	}
}

func run(wlName, mixes, shapeName string, mean, amplitude, base, peak float64, levels string,
	duration, step, slo time.Duration, hysteresis float64, showPlan bool,
	frontierN, maxA9, maxK10 int, dvfs bool, nodesPath, wlsPath string) error {
	catalog, registry, err := cli.LoadEnvironment(nodesPath, wlsPath)
	if err != nil {
		return err
	}
	wl, err := registry.Lookup(wlName)
	if err != nil {
		return err
	}

	var cands []*energyprop.Analysis
	if frontierN > 0 {
		// Candidate matrix from the design space itself: sweep the
		// frontier with the memoized engine and thin it to N mixes.
		a9, err := catalog.Lookup("A9")
		if err != nil {
			return err
		}
		k10, err := catalog.Lookup("K10")
		if err != nil {
			return err
		}
		limits := []cluster.Limit{
			{Type: a9, MaxNodes: maxA9, FixCoresAndFreq: !dvfs},
			{Type: k10, MaxNodes: maxK10, FixCoresAndFreq: !dvfs},
		}
		cands, err = adaptive.FrontierCandidates(limits, wl, model.Options{}, frontierN, 100)
		if err != nil {
			return err
		}
		fmt.Printf("frontier candidates over %d configurations:\n", cluster.SpaceSize(limits))
		for _, c := range cands {
			fmt.Printf("  %-22s T=%v E=%v\n", c.Result.Config, c.Result.Time, c.Result.Energy)
		}
		fmt.Println()
	} else {
		for _, spec := range strings.Split(mixes, ";") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			cfg, err := cli.ParseMix(catalog, spec, 0, 0)
			if err != nil {
				return err
			}
			a, err := energyprop.Analyze(cfg, wl, model.Options{}, 100)
			if err != nil {
				return err
			}
			cands = append(cands, a)
		}
	}
	if len(cands) < 2 {
		return fmt.Errorf("need at least two candidate mixes, got %d", len(cands))
	}

	var shape loadtrace.Shape
	switch shapeName {
	case "diurnal":
		shape = loadtrace.Diurnal{Mean: mean, Amplitude: amplitude, Period: 86400, PeakAt: 14 * 3600}
	case "flashcrowd":
		shape = loadtrace.FlashCrowd{Base: base, Peak: peak, Start: 9 * 3600, HalfLife: 2 * 3600}
	case "steps":
		var lv []float64
		for _, s := range strings.Split(levels, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil {
				return fmt.Errorf("bad level %q: %w", s, err)
			}
			lv = append(lv, v)
		}
		shape = loadtrace.Steps{Levels: lv, Dwell: duration.Seconds() / float64(len(lv))}
	default:
		return fmt.Errorf("unknown shape %q", shapeName)
	}

	static, adapted, err := loadtrace.Evaluate(cands, shape, loadtrace.TraceOptions{
		Duration: duration.Seconds(),
		Step:     step.Seconds(),
		Policy: adaptive.Policy{
			SLO:        slo.Seconds(),
			Hysteresis: hysteresis,
		},
	})
	if err != nil {
		return err
	}

	fmt.Printf("workload %s, shape %s, %v trace with %v epochs\n\n", wl.Name, shape.Name(), duration, step)
	for _, r := range []loadtrace.Result{static, adapted} {
		fmt.Printf("%-40s %10.2f kWh  mean %7.1f W", r.Strategy, r.Energy/3.6e6, r.MeanPower)
		if r.Switches > 0 || strings.HasPrefix(r.Strategy, "adaptive") {
			fmt.Printf("  switches=%d violations=%d", r.Switches, r.SLOViolations)
		}
		fmt.Println()
	}
	fmt.Printf("\nenergy saving from adaptation: %.1f%% (mean load %.1f%%)\n",
		100*loadtrace.Saving(static, adapted), 100*static.MeanLoad)

	if showPlan {
		grid := make([]float64, 0, 19)
		for u := 0.05; u <= 0.95; u += 0.05 {
			grid = append(grid, u)
		}
		plan, err := adaptive.Plan(cands, adaptive.Policy{SLO: slo.Seconds(), Hysteresis: hysteresis}, grid)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := plan.RenderTable(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
