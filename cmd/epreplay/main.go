// Command epreplay replays a utilization trace — synthetic (diurnal,
// flash crowd, ramp, steps) or loaded from CSV/JSON — through a set of
// candidate cluster configurations, reporting the cumulative energy
// ledger, the gap against an ideal energy-proportional system, tail
// latency SLO compliance and configuration-switch churn. With -adaptive
// the planner re-provisions between steps (hysteresis and switch energy
// included); otherwise the fastest candidate serves the whole trace.
//
// Usage:
//
//	epreplay -budget -shape diurnal -mean 0.35 -amplitude 0.3
//	epreplay -mixes "32xA9,12xK10;25xA9,5xK10" -adaptive -slo 200ms
//	epreplay -trace-file day.csv -format json -o replay.json
//
// Note the flag split: -trace-file names the utilization trace to
// replay (CSV/JSON input), while the shared telemetry flag -trace
// writes a Chrome trace-event file of this process's own execution
// (Perfetto-loadable output). They are unrelated; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

type options struct {
	workload     string
	mixes        string
	budget       bool
	tracePath    string
	shape        string
	mean         float64
	amplitude    float64
	base         float64
	peak         float64
	from         float64
	to           float64
	levels       string
	duration     time.Duration
	step         time.Duration
	adaptive     bool
	slo          time.Duration
	sloPct       float64
	percentiles  string
	hysteresis   float64
	switchEnergy float64
	format       string
	nodes        string
	workloads    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "EP", "workload name")
	flag.StringVar(&o.mixes, "mixes", "", "semicolon-separated candidate mixes, e.g. \"32xA9,12xK10;25xA9,5xK10\"")
	flag.BoolVar(&o.budget, "budget", false, "use the paper's 1 kW-budget substitution ladder as the candidate set")
	// -trace is taken by the shared telemetry flags (Chrome trace output).
	flag.StringVar(&o.tracePath, "trace-file", "", "utilization trace file (.csv or .json); empty generates -shape")
	flag.StringVar(&o.shape, "shape", "diurnal", "synthetic shape: diurnal, flashcrowd, ramp or steps")
	flag.Float64Var(&o.mean, "mean", 0.35, "diurnal mean load fraction")
	flag.Float64Var(&o.amplitude, "amplitude", 0.3, "diurnal amplitude")
	flag.Float64Var(&o.base, "base", 0.2, "flashcrowd base load")
	flag.Float64Var(&o.peak, "peak", 0.9, "flashcrowd peak load")
	flag.Float64Var(&o.from, "from", 0.1, "ramp start load")
	flag.Float64Var(&o.to, "to", 0.8, "ramp end load")
	flag.StringVar(&o.levels, "levels", "0.15,0.55,0.85,0.45", "steps: comma-separated load levels")
	flag.DurationVar(&o.duration, "duration", 24*time.Hour, "synthetic trace duration")
	flag.DurationVar(&o.step, "step", 5*time.Minute, "synthetic trace sampling step (288 steps per default day)")
	flag.BoolVar(&o.adaptive, "adaptive", false, "re-provision between steps with the adaptive planner")
	flag.DurationVar(&o.slo, "slo", 0, "response-time SLO at -slo-percentile (0 disables)")
	flag.Float64Var(&o.sloPct, "slo-percentile", 95, "percentile the SLO applies to")
	flag.StringVar(&o.percentiles, "percentiles", "95,99", "comma-separated response percentiles to evaluate")
	flag.Float64Var(&o.hysteresis, "hysteresis", 0.05, "switching hysteresis margin")
	flag.Float64Var(&o.switchEnergy, "switch-energy", 0, "joules charged per configuration switch")
	flag.StringVar(&o.format, "format", "text", "output format: text, json or csv")
	flag.StringVar(&o.nodes, "nodes", "", "JSON file with extra node types")
	flag.StringVar(&o.workloads, "workloads", "", "JSON file with extra workload profiles")
	tel := cli.AddTelemetryFlags(nil)
	flag.Parse()

	if err := tel.Start(); err != nil {
		cli.Fatal("epreplay", err)
	}
	err := run(context.Background(), o, os.Stdout)
	if cerr := tel.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		cli.Fatal("epreplay", err)
	}
}

func run(ctx context.Context, o options, w io.Writer) error {
	catalog, registry, err := cli.LoadEnvironment(o.nodes, o.workloads)
	if err != nil {
		return err
	}
	wl, err := registry.Lookup(o.workload)
	if err != nil {
		return err
	}

	var configs []cluster.Config
	switch {
	case o.budget:
		spec, err := cluster.DefaultBudget(catalog)
		if err != nil {
			return err
		}
		ladder, err := spec.Ladder()
		if err != nil {
			return err
		}
		for _, m := range ladder {
			configs = append(configs, m.Config)
		}
	case o.mixes != "":
		for _, spec := range strings.Split(o.mixes, ";") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			cfg, err := cli.ParseMix(catalog, spec, 0, 0)
			if err != nil {
				return err
			}
			configs = append(configs, cfg)
		}
	default:
		return fmt.Errorf("need a candidate set: -budget or -mixes")
	}
	var cands []*energyprop.Analysis
	for _, cfg := range configs {
		a, err := energyprop.Analyze(cfg, wl, model.Options{}, 100)
		if err != nil {
			return err
		}
		cands = append(cands, a)
	}

	tr, err := loadTrace(o)
	if err != nil {
		return err
	}

	ps, err := parsePercentiles(o.percentiles)
	if err != nil {
		return err
	}
	opt := replay.Options{
		Percentiles:   ps,
		SLO:           o.slo.Seconds(),
		SLOPercentile: o.sloPct,
		Adaptive:      o.adaptive,
		Policy:        adaptive.Policy{SLO: o.slo.Seconds(), Percentile: o.sloPct, Hysteresis: o.hysteresis},
		SwitchEnergy:  o.switchEnergy,
	}

	switch o.format {
	case "text":
		res, err := replay.Run(ctx, cands, tr, opt)
		if err != nil {
			return err
		}
		return res.Summary.Render(w)
	case "json":
		res, err := replay.Run(ctx, cands, tr, opt)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	case "csv":
		// Steps stream as CSV rows as they are evaluated; the summary goes
		// to stderr so the data stays machine-readable.
		opt.DiscardSteps = true
		var emitErr error
		header := false
		opt.OnStep = func(st replay.Step) error {
			if !header {
				header = true
				cols := []string{"t", "dt", "load", "chosen", "config", "utilization", "power_watts", "energy_joules"}
				for _, p := range ps {
					cols = append(cols, fmt.Sprintf("p%g_response_s", p))
				}
				cols = append(cols, "slo_violated", "saturated", "switched")
				if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
					return err
				}
			}
			row := []string{
				formatFloat(st.T), formatFloat(st.DT), formatFloat(st.Load),
				strconv.Itoa(st.Chosen), strconv.Quote(st.Config),
				formatFloat(st.Utilization), formatFloat(st.PowerWatts), formatFloat(st.EnergyJoules),
			}
			for _, v := range st.ResponseSeconds {
				row = append(row, formatFloat(v))
			}
			row = append(row, strconv.FormatBool(st.SLOViolated),
				strconv.FormatBool(st.Saturated), strconv.FormatBool(st.Switched))
			_, emitErr = fmt.Fprintln(w, strings.Join(row, ","))
			return emitErr
		}
		res, err := replay.Run(ctx, cands, tr, opt)
		if err != nil {
			return err
		}
		return res.Summary.Render(os.Stderr)
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", o.format)
	}
}

// loadTrace reads the trace file when given (format by extension) or
// samples the requested synthetic shape.
func loadTrace(o options) (replay.Trace, error) {
	if o.tracePath != "" {
		f, err := os.Open(o.tracePath)
		if err != nil {
			return replay.Trace{}, err
		}
		defer f.Close()
		var tr replay.Trace
		switch ext := filepath.Ext(o.tracePath); ext {
		case ".json":
			tr, err = replay.ParseJSON(f)
		case ".csv", ".txt", "":
			tr, err = replay.ParseCSV(f)
		default:
			return replay.Trace{}, fmt.Errorf("unknown trace extension %q (want .csv or .json)", ext)
		}
		if err != nil {
			return replay.Trace{}, err
		}
		if tr.Name == "" {
			tr.Name = filepath.Base(o.tracePath)
		}
		return tr, nil
	}

	var shape loadtrace.Shape
	switch o.shape {
	case "diurnal":
		shape = loadtrace.Diurnal{Mean: o.mean, Amplitude: o.amplitude, Period: 86400, PeakAt: 14 * 3600}
	case "flashcrowd":
		shape = loadtrace.FlashCrowd{Base: o.base, Peak: o.peak, Start: 9 * 3600, HalfLife: 2 * 3600}
	case "ramp":
		shape = loadtrace.Ramp{From: o.from, To: o.to, Duration: o.duration.Seconds()}
	case "steps":
		var lv []float64
		for _, s := range strings.Split(o.levels, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return replay.Trace{}, fmt.Errorf("bad level %q: %w", s, err)
			}
			lv = append(lv, v)
		}
		shape = loadtrace.Steps{Levels: lv, Dwell: o.duration.Seconds() / float64(len(lv))}
	default:
		return replay.Trace{}, fmt.Errorf("unknown shape %q (want diurnal, flashcrowd, ramp or steps)", o.shape)
	}
	if o.step <= 0 || o.duration <= 0 {
		return replay.Trace{}, fmt.Errorf("duration and step must be positive")
	}
	steps := int(o.duration.Seconds() / o.step.Seconds())
	return replay.FromShape(shape, o.step.Seconds(), steps)
}

func parsePercentiles(s string) ([]float64, error) {
	var ps []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad percentile %q: %w", part, err)
		}
		ps = append(ps, v)
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("no percentiles in %q", s)
	}
	return ps, nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
