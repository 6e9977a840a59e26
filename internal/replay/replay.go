package replay

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/adaptive"
	"repro/internal/energyprop"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// defaultMaxUtilization caps how hot a configuration may run when the
// policy does not say otherwise, matching adaptive.Policy's default (an
// M/D/1 queue at utilization 1 has unbounded delay).
const defaultMaxUtilization = 0.95

// Options configures a replay run.
type Options struct {
	// Percentiles are the response-time percentiles evaluated at every
	// step (each in [0, 100)); empty means {95, 99}. The SLO percentile
	// is always included internally.
	Percentiles []float64
	// SLO is the maximum allowed response time (seconds) at SLOPercentile;
	// zero disables SLO accounting. In adaptive mode the SLO also gates
	// candidate feasibility through the planner policy.
	SLO float64
	// SLOPercentile is the percentile the SLO applies to (default 95).
	SLOPercentile float64
	// Adaptive lets the planner re-provision between steps: each step
	// runs the cheapest feasible candidate, with the policy's hysteresis
	// applied against the configuration running in the previous step.
	// Static mode (false) keeps the reference candidate throughout.
	Adaptive bool
	// Policy constrains the adaptive planner (ignored in static mode,
	// except MaxUtilization which also caps the static queue).
	Policy adaptive.Policy
	// SwitchEnergy is the energy charged per configuration switch in
	// joules (node power-state transitions are not free; the paper's
	// static analysis models switching as free, this surfaces the cost).
	SwitchEnergy float64
	// OnStep, when set, receives every step result in trace order as
	// soon as it is evaluated; returning an error aborts the run.
	OnStep func(Step) error
	// DiscardSteps drops per-step results from the returned Result
	// (streaming callers consume them through OnStep instead).
	DiscardSteps bool
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if len(o.Percentiles) == 0 {
		o.Percentiles = []float64{95, 99}
	}
	if o.SLOPercentile <= 0 {
		o.SLOPercentile = 95
	}
	if !(o.Policy.MaxUtilization > 0 && o.Policy.MaxUtilization < 1) {
		o.Policy.MaxUtilization = defaultMaxUtilization
	}
	if o.SLO > 0 && o.Policy.SLO == 0 {
		o.Policy.SLO = o.SLO
		o.Policy.Percentile = o.SLOPercentile
	}
	return o
}

// Step is the evaluation of one trace step.
type Step struct {
	// T is the step start time (seconds) and DT its dwell.
	T  float64 `json:"t"`
	DT float64 `json:"dt"`
	// Load is the offered load fraction of the reference capacity.
	Load float64 `json:"load"`
	// Chosen is the index of the serving candidate and Config its mix.
	Chosen int    `json:"chosen"`
	Config string `json:"config"`
	// Utilization is the serving candidate's own utilization (clamped to
	// the policy's MaxUtilization when the step saturates).
	Utilization float64 `json:"utilization"`
	// PowerWatts is the average power and EnergyJoules = power * dwell.
	PowerWatts   float64 `json:"power_watts"`
	EnergyJoules float64 `json:"energy_joules"`
	// ResponseSeconds holds the response-time percentiles, aligned with
	// the run's Percentiles.
	ResponseSeconds []float64 `json:"response_seconds"`
	// SLOViolated marks steps whose response exceeded the SLO or that had
	// no feasible configuration.
	SLOViolated bool `json:"slo_violated,omitempty"`
	// Saturated marks steps whose offered load exceeded what the serving
	// candidate may carry; the queue was evaluated at MaxUtilization.
	Saturated bool `json:"saturated,omitempty"`
	// Switched marks steps that changed configuration.
	Switched bool `json:"switched,omitempty"`
}

// Summary is the cumulative ledger of a replay — the report a capacity
// planner reads: total and ideal-proportional energy, SLO compliance and
// reconfiguration churn.
type Summary struct {
	Trace      string   `json:"trace"`
	Candidates []string `json:"candidates"`
	Adaptive   bool     `json:"adaptive"`
	Steps      int      `json:"steps"`
	// DurationSeconds is the covered trace time; MeanLoad the
	// dwell-weighted mean offered load.
	DurationSeconds float64 `json:"duration_seconds"`
	MeanLoad        float64 `json:"mean_load"`
	// ReferencePeakWatts anchors the ideal-proportional baseline: an
	// ideal system draws ReferencePeak * load.
	ReferencePeakWatts float64 `json:"reference_peak_watts"`
	MeanPowerWatts     float64 `json:"mean_power_watts"`
	// TotalEnergyJoules includes SwitchEnergyJoules; IdealEnergyJoules is
	// the ideal-proportional system's spend over the same trace, and
	// EnergyGap = (total - ideal) / ideal the fractional overhead above
	// perfect proportionality (0 when the ideal energy is zero).
	TotalEnergyJoules  float64 `json:"total_energy_joules"`
	SwitchEnergyJoules float64 `json:"switch_energy_joules"`
	IdealEnergyJoules  float64 `json:"ideal_energy_joules"`
	EnergyGap          float64 `json:"energy_gap"`
	// Switches counts configuration changes, the steps marked Switched
	// (moves into and out of the adaptive infeasible fallback included);
	// SuppressedSwitches how many the hysteresis held back.
	Switches           int `json:"switches"`
	SuppressedSwitches int `json:"suppressed_switches"`
	// SLOViolations counts violating steps; SLOViolationFrac is the
	// fraction of steps. SaturatedSteps counts steps clamped at the
	// utilization cap.
	SLOViolations    int     `json:"slo_violations"`
	SLOViolationFrac float64 `json:"slo_violation_frac"`
	SaturatedSteps   int     `json:"saturated_steps"`
	// Percentiles echoes the evaluated percentiles; MaxResponseSeconds
	// and MeanResponseSeconds aggregate each across steps (the mean is
	// dwell-weighted).
	Percentiles         []float64 `json:"percentiles"`
	MaxResponseSeconds  []float64 `json:"max_response_seconds"`
	MeanResponseSeconds []float64 `json:"mean_response_seconds"`
}

// Result is a completed replay.
type Result struct {
	Summary Summary `json:"summary"`
	// Steps holds the per-step results unless Options.DiscardSteps.
	Steps []Step `json:"steps,omitempty"`
}

// decision is the per-step serving choice before percentile evaluation.
// When the stepper chose the candidate, solved marks resp as its
// response at the stepper's policy percentile.
type decision struct {
	chosen     int
	rho        float64
	power      float64
	resp       float64
	solved     bool
	infeasible bool
	saturated  bool
	switched   bool
}

// Run replays the trace against the candidates. candidates[0..n) are the
// available configurations; the reference for load normalization is the
// fastest one, as in adaptive.Plan. In static mode the reference serves
// every step; in adaptive mode a planner stepper re-decides each step.
// Each step is decided, solved, booked and emitted before the next is
// decided, so a run that fails has emitted every step before the
// failing one. Each per-step response percentile is one scalar M/D/1
// solve at the step's utilization, so a replayed step matches a direct
// point evaluation exactly.
func Run(ctx context.Context, candidates []*energyprop.Analysis, tr Trace, opt Options) (*Result, error) {
	if len(candidates) == 0 {
		return nil, errors.New("replay: no candidates")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()

	// Always evaluate the SLO percentile; remember where each requested
	// percentile lives in the (possibly extended) batch.
	ps := append([]float64(nil), opt.Percentiles...)
	for _, p := range ps {
		if p < 0 || p >= 100 {
			return nil, fmt.Errorf("replay: percentile %g outside [0, 100)", p)
		}
	}
	sloIdx := -1
	if opt.SLO > 0 {
		for i, p := range ps {
			if p == opt.SLOPercentile {
				sloIdx = i
			}
		}
		if sloIdx < 0 {
			sloIdx = len(ps)
			ps = append(ps, opt.SLOPercentile)
		}
	}

	stepper, err := adaptive.NewStepper(candidates, opt.Policy)
	if err != nil {
		return nil, err
	}
	ref := stepper.Reference()
	refPeak := float64(candidates[ref].Result.BusyPower)

	// A request-scoped replay (POST /v1/replay) times its run on the
	// owning request's timeline and attributes its stepped trace there;
	// a CLI run's span goes to the process tracer.
	span := telemetry.Start(ctx, "replay.run")
	defer span.End()
	if span.KeepsArgs() {
		span.Arg("steps", tr.Steps()).Arg("candidates", len(candidates)).Arg("adaptive", opt.Adaptive)
	}
	telemetry.RequestFrom(ctx).Add(telemetry.AttrReplaySteps, int64(tr.Steps()))
	reg := telemetry.Global()
	stepCnt := reg.Counter("replay.steps")
	violationCnt := reg.Counter("replay.slo_violations")
	switchCnt := reg.Counter("replay.switches")

	n := tr.Steps()
	res := &Result{Summary: Summary{
		Trace:              tr.Name,
		Adaptive:           opt.Adaptive,
		Steps:              n,
		DurationSeconds:    tr.Duration(),
		MeanLoad:           tr.MeanLoad(),
		ReferencePeakWatts: refPeak,
		Percentiles:        opt.Percentiles,
	}}
	for _, c := range candidates {
		res.Summary.Candidates = append(res.Summary.Candidates, c.Result.Config.String())
	}
	if !opt.DiscardSteps {
		res.Steps = make([]Step, 0, n)
	}

	var totalE, idealE stats.KahanSum
	maxResp := make([]float64, len(opt.Percentiles))
	meanResp := make([]stats.KahanSum, len(opt.Percentiles))
	prev := -1

	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		load := tr.Points[i].Load
		d, err := decideStep(stepper, candidates, load, opt) // hysteresis carries across steps
		if err != nil {
			return nil, err
		}
		d.switched = prev >= 0 && d.chosen != prev
		prev = d.chosen

		resps, err := stepResponses(ctx, candidates[d.chosen], d, ps, stepper.Percentile())
		if err != nil {
			return nil, fmt.Errorf("replay: step %d (load %g): %w", i, load, err)
		}

		dt := tr.dwell(i)
		st := Step{
			T: tr.Points[i].T, DT: dt, Load: load,
			Chosen:          d.chosen,
			Config:          res.Summary.Candidates[d.chosen],
			Utilization:     d.rho,
			PowerWatts:      d.power,
			EnergyJoules:    d.power * dt,
			ResponseSeconds: resps[:len(opt.Percentiles):len(opt.Percentiles)],
			Saturated:       d.saturated,
			Switched:        d.switched,
		}
		if d.infeasible || d.saturated {
			st.SLOViolated = true
		} else if opt.SLO > 0 && resps[sloIdx] > opt.SLO {
			st.SLOViolated = true
		}

		totalE.Add(st.EnergyJoules)
		idealE.Add(refPeak * load * dt)
		for k := range opt.Percentiles {
			if v := st.ResponseSeconds[k]; v > maxResp[k] {
				maxResp[k] = v
			}
			meanResp[k].Add(st.ResponseSeconds[k] * dt)
		}
		if st.SLOViolated {
			res.Summary.SLOViolations++
			violationCnt.Inc()
		}
		if st.Saturated {
			res.Summary.SaturatedSteps++
		}
		if st.Switched {
			res.Summary.Switches++
			switchCnt.Inc()
		}
		stepCnt.Inc()
		if opt.OnStep != nil {
			if err := opt.OnStep(st); err != nil {
				return nil, fmt.Errorf("replay: step consumer: %w", err)
			}
		}
		if !opt.DiscardSteps {
			res.Steps = append(res.Steps, st)
		}
	}

	res.Summary.SuppressedSwitches = stepper.Suppressed()
	res.Summary.SwitchEnergyJoules = float64(res.Summary.Switches) * opt.SwitchEnergy
	totalE.Add(res.Summary.SwitchEnergyJoules)
	res.Summary.TotalEnergyJoules = totalE.Sum()
	res.Summary.IdealEnergyJoules = idealE.Sum()
	if res.Summary.IdealEnergyJoules > 0 {
		res.Summary.EnergyGap = (res.Summary.TotalEnergyJoules - res.Summary.IdealEnergyJoules) /
			res.Summary.IdealEnergyJoules
	}
	if res.Summary.DurationSeconds > 0 {
		res.Summary.MeanPowerWatts = res.Summary.TotalEnergyJoules / res.Summary.DurationSeconds
	}
	res.Summary.SLOViolationFrac = float64(res.Summary.SLOViolations) / float64(n)
	res.Summary.MaxResponseSeconds = maxResp
	res.Summary.MeanResponseSeconds = make([]float64, len(opt.Percentiles))
	for k := range meanResp {
		if res.Summary.DurationSeconds > 0 {
			res.Summary.MeanResponseSeconds[k] = meanResp[k].Sum() / res.Summary.DurationSeconds
		}
	}
	return res, nil
}

// decideStep resolves the serving candidate for one load. In adaptive
// mode the stepper decides; static mode (and the adaptive infeasible
// fallback) serves from the reference. Loads past the utilization cap
// clamp the queue at the cap and mark the step saturated — the offered
// traffic exceeds what the configuration may carry under the policy.
func decideStep(stepper *adaptive.Stepper, candidates []*energyprop.Analysis, load float64, opt Options) (decision, error) {
	ref := stepper.Reference()
	if opt.Adaptive {
		d, err := stepper.Step(load)
		if err != nil {
			return decision{}, err
		}
		if d.Chosen >= 0 {
			return decision{chosen: d.Chosen, rho: d.Utilization, power: d.Power,
				resp: d.Response, solved: true}, nil
		}
		// No feasible candidate: run the reference and eat the latency.
		dec := referenceDecision(candidates[ref], ref, load, opt)
		dec.infeasible = true
		return dec, nil
	}
	return referenceDecision(candidates[ref], ref, load, opt), nil
}

// stepResponses returns the serving candidate's response percentiles at
// the step's utilization, one per entry of ps. An entry at the stepper's
// policy percentile is taken from its decision when it chose the
// candidate: that is the same solve of the same queue, so the same
// bits. (A policy percentile outside [0, 100) failed its solve there
// and is solved here, to fail the same way.) The rest are solved one at
// a time with ctx checked before each, and record no request phase of
// their own: the run's replay.run phase covers them.
func stepResponses(ctx context.Context, c *energyprop.Analysis, d decision, ps []float64, policyPct float64) ([]float64, error) {
	q, err := queueing.NewMD1FromUtilization(d.rho, float64(c.Result.Time))
	if err != nil {
		return nil, err
	}
	reuse := d.solved && policyPct >= 0 && policyPct < 100
	out := make([]float64, len(ps))
	for k, p := range ps {
		if reuse && p == policyPct {
			out[k] = d.resp
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if out[k], err = q.ResponsePercentile(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// referenceDecision evaluates the reference candidate at the load, with
// the utilization cap applied. The reference's own utilization equals
// the load fraction by construction.
func referenceDecision(c *energyprop.Analysis, ref int, load float64, opt Options) decision {
	rho := load
	saturated := false
	if rho > opt.Policy.MaxUtilization {
		rho = opt.Policy.MaxUtilization
		saturated = true
	}
	return decision{chosen: ref, rho: rho, power: c.PowerAt(rho), saturated: saturated}
}

// Render writes the summary as aligned text (the CLI's default output).
func (s Summary) Render(w io.Writer) error {
	mode := "static"
	if s.Adaptive {
		mode = "adaptive"
	}
	_, err := fmt.Fprintf(w, `replay: %s (%s over %d candidates)
steps %d   duration %.6gs   mean load %.3f
total energy %.6g J   (switches %.6g J over %d switches, %d suppressed)
ideal-proportional energy %.6g J   gap %+.1f%%
mean power %.6g W   reference peak %.6g W
SLO violations %d/%d (%.1f%%)   saturated steps %d
`,
		s.Trace, mode, len(s.Candidates),
		s.Steps, s.DurationSeconds, s.MeanLoad,
		s.TotalEnergyJoules, s.SwitchEnergyJoules, s.Switches, s.SuppressedSwitches,
		s.IdealEnergyJoules, 100*s.EnergyGap,
		s.MeanPowerWatts, s.ReferencePeakWatts,
		s.SLOViolations, s.Steps, 100*s.SLOViolationFrac, s.SaturatedSteps)
	if err != nil {
		return err
	}
	for k, p := range s.Percentiles {
		if _, err := fmt.Fprintf(w, "p%g response: max %.6gs   mean %.6gs\n",
			p, s.MaxResponseSeconds[k], s.MeanResponseSeconds[k]); err != nil {
			return err
		}
	}
	return nil
}
