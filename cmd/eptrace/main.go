// Command eptrace plays a synthetic datacenter load trace against a set
// of cluster configurations, comparing a static deployment with dynamic
// configuration switching (see internal/replay and the paper's
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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/loadtrace"
	"repro/internal/model"
	"repro/internal/replay"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		cli.Fatal("eptrace", err)
	}
}

// run parses the flags in args and writes the report to w.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("eptrace", flag.ExitOnError)
	wlName := fs.String("workload", "EP", "workload name")
	mixes := fs.String("mixes", "32xA9,12xK10;25xA9,8xK10;25xA9,5xK10", "semicolon-separated candidate mixes; the fastest is the static reference")
	frontierN := fs.Int("frontier-candidates", 0, "derive N candidates from the Pareto frontier of the -maxA9/-maxK10 space instead of -mixes (0 disables)")
	maxA9 := fs.Int("maxA9", 32, "maximum wimpy nodes for -frontier-candidates")
	maxK10 := fs.Int("maxK10", 12, "maximum brawny nodes for -frontier-candidates")
	dvfs := fs.Bool("dvfs", false, "let -frontier-candidates explore reduced cores and frequencies")
	shapeName := fs.String("shape", "diurnal", "load shape: diurnal, flashcrowd or steps")
	mean := fs.Float64("mean", 0.3, "diurnal mean load fraction")
	amplitude := fs.Float64("amplitude", 0.25, "diurnal amplitude")
	base := fs.Float64("base", 0.2, "flashcrowd base load")
	peak := fs.Float64("peak", 0.9, "flashcrowd peak load")
	levels := fs.String("levels", "0.15,0.55,0.85,0.45", "steps: comma-separated load levels")
	duration := fs.Duration("duration", 24*time.Hour, "trace duration")
	step := fs.Duration("step", 15*time.Minute, "reconfiguration epoch")
	slo := fs.Duration("slo", 0, "p95 response SLO (0 disables)")
	hysteresis := fs.Float64("hysteresis", 0.05, "switching hysteresis margin")
	showPlan := fs.Bool("plan", false, "print the per-load configuration plan table")
	nodes := fs.String("nodes", "", "JSON file with extra node types")
	wls := fs.String("workloads", "", "JSON file with extra workload profiles")
	tel := cli.AddTelemetryFlags(fs)
	fs.Parse(args) // ExitOnError: a bad flag exits 2

	if err := tel.Start(); err != nil {
		return err
	}
	defer func() {
		if cerr := tel.Close(); err == nil {
			err = cerr
		}
	}()
	catalog, registry, err := cli.LoadEnvironment(*nodes, *wls)
	if err != nil {
		return err
	}
	wl, err := registry.Lookup(*wlName)
	if err != nil {
		return err
	}

	var cands []*energyprop.Analysis
	if *frontierN > 0 {
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
			{Type: a9, MaxNodes: *maxA9, FixCoresAndFreq: !*dvfs},
			{Type: k10, MaxNodes: *maxK10, FixCoresAndFreq: !*dvfs},
		}
		cands, err = adaptive.FrontierCandidates(limits, wl, model.Options{}, *frontierN, 100)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "frontier candidates over %d configurations:\n", cluster.SpaceSize(limits))
		for _, c := range cands {
			fmt.Fprintf(w, "  %-22s T=%v E=%v\n", c.Result.Config, c.Result.Time, c.Result.Energy)
		}
		fmt.Fprintln(w)
	} else {
		for _, spec := range strings.Split(*mixes, ";") {
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
	switch *shapeName {
	case "diurnal":
		shape = loadtrace.Diurnal{Mean: *mean, Amplitude: *amplitude, Period: 86400, PeakAt: 14 * 3600}
	case "flashcrowd":
		shape = loadtrace.FlashCrowd{Base: *base, Peak: *peak, Start: 9 * 3600, HalfLife: 2 * 3600}
	case "steps":
		var lv []float64
		for _, s := range strings.Split(*levels, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad level %q: %w", s, err)
			}
			lv = append(lv, v)
		}
		shape = loadtrace.Steps{Levels: lv, Dwell: duration.Seconds() / float64(len(lv))}
	default:
		return fmt.Errorf("unknown shape %q", *shapeName)
	}
	tr, err := replay.FromShape(shape, step.Seconds(), int(duration.Seconds()/step.Seconds()))
	if err != nil {
		return err
	}

	// The static run keeps its steps: every one names the reference.
	opt := replay.Options{Policy: adaptive.Policy{SLO: slo.Seconds(), Hysteresis: *hysteresis}}
	static, err := replay.Run(context.Background(), cands, tr, opt)
	if err != nil {
		return err
	}
	opt.Adaptive, opt.DiscardSteps = true, true
	adapted, err := replay.Run(context.Background(), cands, tr, opt)
	if err != nil {
		return err
	}
	s, a := static.Summary, adapted.Summary

	fmt.Fprintf(w, "workload %s, shape %s, %v trace with %v epochs\n\n", wl.Name, shape.Name(), *duration, *step)
	fmt.Fprintf(w, "%-40s %10.2f kWh  mean %7.1f W\n",
		"static "+static.Steps[0].Config, s.TotalEnergyJoules/3.6e6, s.MeanPowerWatts)
	fmt.Fprintf(w, "%-40s %10.2f kWh  mean %7.1f W  switches=%d violations=%d\n",
		fmt.Sprintf("adaptive over %d configs", len(cands)), a.TotalEnergyJoules/3.6e6, a.MeanPowerWatts,
		a.Switches, a.SLOViolations)
	fmt.Fprintf(w, "\nenergy saving from adaptation: %.1f%% (mean load %.1f%%)\n",
		100*(1-a.TotalEnergyJoules/s.TotalEnergyJoules), 100*s.MeanLoad)

	if *showPlan {
		grid := make([]float64, 0, 19)
		for u := 0.05; u <= 0.95; u += 0.05 {
			grid = append(grid, u)
		}
		plan, err := adaptive.Plan(cands, opt.Policy, grid)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := plan.RenderTable(w); err != nil {
			return err
		}
	}
	return nil
}
