package serve

import (
	"time"

	"repro/internal/telemetry"
)

// SLOTarget is one route's service-level objective: requests should
// finish inside P99, and at least Goal of them must — the remaining
// 1-Goal is the route's error budget. Scale-out latency-critical
// workloads are judged by exactly this shape of objective (tail
// percentile under load), which is why the tracker sits beside the
// admission plane rather than in a dashboard afterthought.
type SLOTarget struct {
	// P99 is the latency objective; a request slower than this (or
	// answered 5xx) breaches.
	P99 time.Duration `json:"p99"`
	// Goal is the fraction of requests that must meet P99, e.g. 0.999.
	Goal float64 `json:"goal"`
}

// sloTargets are the per-route objectives, keyed by route label: tight
// for the point queries, loose for the sweep-shaped endpoints whose
// work scales with the requested space. Routes absent from the map
// (the probes) get no SLO tracking.
var sloTargets = map[string]SLOTarget{
	"percentiles": {P99: 25 * time.Millisecond, Goal: 0.999},
	"epmetrics":   {P99: 25 * time.Millisecond, Goal: 0.999},
	"frontier":    {P99: 2 * time.Second, Goal: 0.99},
	"replay":      {P99: 30 * time.Second, Goal: 0.99},
}

// sloTracker accounts one route's requests against its SLOTarget. The
// good/breach split is exported as counters (slo.<route>.good,
// slo.<route>.breach — the error-budget burn counter), so dashboards
// can rate() them, and summarized with budget math on /v1/debug/stats.
type sloTracker struct {
	route  string
	target SLOTarget
	good   *telemetry.Counter
	breach *telemetry.Counter
}

func newSLOTracker(reg *telemetry.Registry, route string, target SLOTarget) *sloTracker {
	return &sloTracker{
		route:  route,
		target: target,
		good:   reg.Counter("slo." + route + ".good"),
		breach: reg.Counter("slo." + route + ".breach"),
	}
}

// observe classifies one finished request. Shed requests (429) are
// deliberately counted as breaches: from the client's point of view a
// shed request missed the objective, and hiding overload from the SLO
// would defeat the point of tracking it.
func (t *sloTracker) observe(d time.Duration, status int) {
	if t == nil {
		return
	}
	if d > t.target.P99 || status >= 500 || status == 429 {
		t.breach.Inc()
		return
	}
	t.good.Inc()
}

// SLOStatus is the /v1/debug/stats summary of one route's objective.
type SLOStatus struct {
	// TargetP99Seconds and Goal restate the objective.
	TargetP99Seconds float64 `json:"target_p99_seconds"`
	Goal             float64 `json:"goal"`
	// Good and Breach are the classified request counts since start.
	Good   uint64 `json:"good"`
	Breach uint64 `json:"breach"`
	// Compliance is Good/(Good+Breach), 1 when nothing was served yet.
	Compliance float64 `json:"compliance"`
	// BudgetUsed is the fraction of the error budget consumed:
	// Breach / ((1-Goal) * total). Above 1 the route is out of budget.
	BudgetUsed float64 `json:"budget_used"`
}

// status summarizes the tracker for /v1/debug/stats.
func (t *sloTracker) status() *SLOStatus {
	if t == nil {
		return nil
	}
	good, breach := t.good.Value(), t.breach.Value()
	s := &SLOStatus{
		TargetP99Seconds: t.target.P99.Seconds(),
		Goal:             t.target.Goal,
		Good:             good,
		Breach:           breach,
		Compliance:       1,
	}
	total := good + breach
	if total > 0 {
		s.Compliance = float64(good) / float64(total)
		if budget := (1 - t.target.Goal) * float64(total); budget > 0 {
			s.BudgetUsed = float64(breach) / budget
		}
	}
	return s
}
