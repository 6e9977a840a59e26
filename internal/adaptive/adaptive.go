// Package adaptive explores the paper's stated complementary direction
// ("dynamic adaptation of workload during the execution of a program
// complements our approach and can be used in conjunction"): instead of
// one static configuration across all utilization levels, a dispatcher
// switches the cluster between configurations as load changes — powering
// brawny nodes down at low utilization the way KnightShift powers down
// its host core.
//
// Given a set of candidate configurations for a workload, Plan computes
// the load-dependent *ensemble*: at each offered load it selects the
// feasible configuration (enough capacity, and optionally a response-
// time SLO) with the lowest average power. The resulting ensemble power
// curve is the lower envelope of the candidates' curves and is typically
// sub-linear against the largest candidate's peak — dynamic adaptation
// scales the proportionality wall further than any static mix.
//
// Switching is modeled as free, matching the paper's static analysis;
// the Decision log exposes where switches happen so a deployment can
// assess transition costs separately.
package adaptive

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/energyprop"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Policy constrains which candidate may serve a given load.
type Policy struct {
	// SLO is the maximum allowed response time at the configured
	// percentile; zero disables the latency constraint.
	SLO float64
	// Percentile is the response-time percentile the SLO applies to
	// (defaults to 95 when zero).
	Percentile float64
	// MaxUtilization caps how hot a candidate may run (defaults to 0.95;
	// an M/D/1 queue at utilization 1 has unbounded delay).
	MaxUtilization float64
	// Hysteresis suppresses switching churn: the plan leaves the current
	// configuration only when the best alternative saves more than this
	// fraction of the current configuration's power (e.g. 0.05 = 5%).
	// Zero switches greedily.
	Hysteresis float64
}

func (p Policy) withDefaults() Policy {
	if p.Percentile <= 0 {
		p.Percentile = 95
	}
	if !(p.MaxUtilization > 0 && p.MaxUtilization < 1) {
		p.MaxUtilization = 0.95
	}
	return p
}

// Decision records the choice made for one load level.
type Decision struct {
	// LoadFrac is the offered load as a fraction of the reference
	// (highest-capacity) candidate's maximum throughput.
	LoadFrac float64
	// Arrival is the job arrival rate (jobs per second).
	Arrival float64
	// Chosen is the index of the selected candidate, or -1 if no
	// candidate is feasible at this load under the policy.
	Chosen int
	// Utilization is the chosen candidate's own utilization at this load.
	Utilization float64
	// Power is the chosen candidate's average power at this load.
	Power float64
	// Response is the chosen candidate's response time at the policy
	// percentile.
	Response float64
}

// Ensemble is the planned load-to-configuration mapping.
type Ensemble struct {
	// Candidates are the analyses the plan selects among.
	Candidates []*energyprop.Analysis
	// Reference is the index of the highest-capacity candidate, whose
	// throughput defines LoadFrac = 1 and whose peak power anchors the
	// normalized ensemble curve.
	Reference int
	// Decisions holds one entry per grid point, ascending in load.
	Decisions []Decision
	// Switches counts configuration changes along the grid.
	Switches int
}

// Plan computes the ensemble over the load grid (fractions of the
// reference capacity in (0, 1]; ascending). Every grid point must be
// feasible for the reference candidate or an error is returned. The
// grid is stepped in order through one Stepper, so hysteresis compares
// each point against the configuration chosen at the point before.
func Plan(candidates []*energyprop.Analysis, policy Policy, grid []float64) (*Ensemble, error) {
	if len(candidates) == 0 {
		return nil, errors.New("adaptive: no candidates")
	}
	if len(grid) == 0 {
		return nil, errors.New("adaptive: empty load grid")
	}

	// Telemetry: the reconfiguration behaviour of the planner —
	// decisions taken, switches, hysteresis suppressions (a thrashing
	// controller shows a high switch or suppression rate) — all no-ops
	// without an installed registry.
	reg := telemetry.Global()
	defer telemetry.StartSpan("adaptive.plan").
		Arg("candidates", len(candidates)).Arg("grid", len(grid)).End()

	st, err := NewStepper(candidates, policy)
	if err != nil {
		return nil, err
	}
	lastLoad := 0.0
	for _, load := range grid {
		if !(load > 0 && load <= 1) { // NaN fails too
			return nil, fmt.Errorf("adaptive: load fraction %g outside (0,1]", load)
		}
		if load < lastLoad {
			return nil, errors.New("adaptive: load grid must ascend")
		}
		lastLoad = load
	}

	decisionsCnt := reg.Counter("adaptive.decisions")
	infeasibleCnt := reg.Counter("adaptive.infeasible_points")
	e := &Ensemble{Candidates: candidates, Reference: st.Reference(),
		Decisions: make([]Decision, 0, len(grid))}
	for _, load := range grid {
		d, err := st.Step(load)
		if err != nil {
			return nil, err
		}
		decisionsCnt.Inc()
		if d.Chosen < 0 {
			infeasibleCnt.Inc()
		}
		e.Decisions = append(e.Decisions, d)
	}
	e.Switches = st.Switches()
	reg.Counter("adaptive.switches").Add(uint64(st.Switches()))
	reg.Counter("adaptive.hysteresis_suppressions").Add(uint64(st.Suppressed()))
	return e, nil
}

// candEval scores one candidate at one offered load: its own
// utilization, power and response time, plus whether the policy admits
// it.
type candEval struct {
	power, rho, resp float64
	ok               bool
}

// evaluateCandidate scores one candidate at one arrival rate. The
// response percentile is computed whenever the queue is stable: with an
// SLO it gates feasibility, without one it still fills the decision log.
func evaluateCandidate(c *energyprop.Analysis, arrival float64, policy Policy) candEval {
	rho := arrival * float64(c.Result.Time)
	if rho > policy.MaxUtilization {
		return candEval{}
	}
	var resp float64
	respOK := false
	if q, err := queueing.NewMD1FromUtilization(rho, float64(c.Result.Time)); err == nil {
		if r, err := q.ResponsePercentile(policy.Percentile); err == nil {
			resp, respOK = r, true
		}
	}
	if policy.SLO > 0 && (!respOK || resp > policy.SLO) {
		return candEval{}
	}
	return candEval{power: c.PowerAt(rho), rho: rho, resp: resp, ok: true}
}

// Curve returns the ensemble power curve on [0,1]: at zero load the
// plan parks on the lowest-idle candidate; above the last grid point it
// extends with the reference at full load. Infeasible points carry the
// reference's power (the dispatcher must keep the big configuration).
func (e *Ensemble) Curve() (energyprop.Curve, error) {
	minIdle := math.Inf(1)
	for _, c := range e.Candidates {
		if v := float64(c.Result.IdlePower); v < minIdle {
			minIdle = v
		}
	}
	refPeak := float64(e.Candidates[e.Reference].Result.BusyPower)

	u := []float64{0}
	p := []float64{minIdle}
	for _, d := range e.Decisions {
		if d.LoadFrac <= u[len(u)-1] {
			continue
		}
		u = append(u, d.LoadFrac)
		if d.Chosen >= 0 {
			p = append(p, d.Power)
		} else {
			p = append(p, refPeak)
		}
	}
	if u[len(u)-1] < 1 {
		u = append(u, 1)
		p = append(p, refPeak)
	} else {
		p[len(p)-1] = refPeak
	}
	return energyprop.NewCurve(u, p)
}

// Savings returns the mean power saving of the ensemble against running
// the reference configuration statically, averaged over the decision
// grid. 0.25 means the adaptive plan draws 25% less power on average.
func (e *Ensemble) Savings() float64 {
	ref := e.Candidates[e.Reference]
	var sumStatic, sumAdaptive float64
	n := 0
	for _, d := range e.Decisions {
		if d.Chosen < 0 {
			continue
		}
		// The static reference serves the same arrival rate at its own
		// utilization rho_ref = arrival * T_ref.
		rhoRef := d.Arrival * float64(ref.Result.Time)
		sumStatic += ref.PowerAt(rhoRef)
		sumAdaptive += d.Power
		n++
	}
	if n == 0 || sumStatic == 0 {
		return 0
	}
	return 1 - sumAdaptive/sumStatic
}

// Metrics evaluates the proportionality metrics of the ensemble curve.
func (e *Ensemble) Metrics() (energyprop.Metrics, error) {
	c, err := e.Curve()
	if err != nil {
		return energyprop.Metrics{}, err
	}
	return energyprop.ComputeMetrics(c), nil
}

// RenderTable writes the plan as an aligned text table.
func (e *Ensemble) RenderTable(w io.Writer) error {
	t := report.NewTable("Adaptive configuration plan",
		"load", "configuration", "own util", "power [W]", "p95 [s]")
	for _, d := range e.Decisions {
		name := "- none feasible -"
		if d.Chosen >= 0 {
			name = e.Candidates[d.Chosen].Result.Config.String()
		}
		t.MustAddRow(
			fmt.Sprintf("%.0f%%", 100*d.LoadFrac),
			name,
			fmt.Sprintf("%.1f%%", 100*d.Utilization),
			fmt.Sprintf("%.1f", d.Power),
			fmt.Sprintf("%.4g", d.Response),
		)
	}
	return t.Render(w)
}
