package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Result is the full outcome of one fleet run.
type Result struct {
	// Summary is the JSON-able aggregate. Two runs of the same Spec
	// marshal to byte-identical summaries.
	Summary Summary
	// ChaosLog lists every injected chaos and scenario event in
	// execution order.
	ChaosLog []ChaosRecord
	// PowerTrace holds the fleet-wide power samples, one per slice
	// (capped; long runs keep the earliest samples).
	PowerTrace []PowerSample
}

// Summary aggregates one fleet run. All floats are plain SI scalars so
// the struct marshals deterministically.
type Summary struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Nodes    int    `json:"nodes"`
	// DurationSeconds is the virtual horizon.
	DurationSeconds float64 `json:"duration_seconds"`
	// Events counts the calendar events run: power samples, timed
	// events and their reverts, and background chaos episodes (those
	// that find their node already in the target state included).
	Events uint64 `json:"events"`

	// Work accounting. Offered = Completed + Lost up to float error.
	OfferedUnits   float64 `json:"offered_units"`
	CompletedUnits float64 `json:"completed_units"`
	LostUnits      float64 `json:"lost_units"`

	// Energy accounting. IdealEnergyJoules is the perfectly-
	// proportional floor: every completed unit charged its node's
	// healthy full-utilization energy (busy dynamic power plus the idle
	// share while busy) and nothing else — no idle waste, no chaos
	// overhead. EnergyProportionality = Ideal/Actual in (0, 1]; 1 means
	// the fleet spent energy exactly proportional to completed work.
	EnergyJoules          float64 `json:"energy_joules"`
	EnergyPerUnitJoules   float64 `json:"energy_per_unit_joules"`
	IdealEnergyJoules     float64 `json:"ideal_energy_joules"`
	EnergyProportionality float64 `json:"energy_proportionality"`
	AvgPowerWatts         float64 `json:"avg_power_watts"`
	PeakPowerWatts        float64 `json:"peak_power_watts"`

	// Chaos accounting.
	Failures        int     `json:"failures"`
	Repairs         int     `json:"repairs"`
	ThrottleEvents  int     `json:"throttle_events"`
	PowerCapEvents  int     `json:"powercap_events"`
	Stragglers      int     `json:"stragglers"`
	DownNodeSeconds float64 `json:"down_node_seconds"`
	// Availability is 1 - down-node-seconds / (nodes * duration).
	Availability float64 `json:"availability"`

	// Tail-latency probe (Spec.Latency). All fields are omitempty so
	// runs without the probe keep byte-identical summaries.
	// LatencyKernel names the queueing kernel ("md1", "mg1(scv=4)",
	// "mmk(k=alive)"); TailLatencySeconds is the worst sampled p-th
	// percentile response time over the run, AvgTailLatencySeconds the
	// mean over non-saturated samples, and LatencySaturatedSamples the
	// number of samples where the alive fleet could not carry the
	// offered load (rho >= 1).
	LatencyKernel           string  `json:"latency_kernel,omitempty"`
	LatencyPercentile       float64 `json:"latency_percentile,omitempty"`
	TailLatencySeconds      float64 `json:"tail_latency_seconds,omitempty"`
	AvgTailLatencySeconds   float64 `json:"avg_tail_latency_seconds,omitempty"`
	LatencySaturatedSamples int     `json:"latency_saturated_samples,omitempty"`

	PerType []TypeSummary `json:"per_type"`
}

// TypeSummary is the per-node-type slice of the aggregate, sorted by
// type name.
type TypeSummary struct {
	Type            string  `json:"type"`
	Nodes           int     `json:"nodes"`
	CompletedUnits  float64 `json:"completed_units"`
	EnergyJoules    float64 `json:"energy_joules"`
	Failures        int     `json:"failures"`
	DownNodeSeconds float64 `json:"down_node_seconds"`
}

// summaryMetrics maps each assertable summary field, named by its JSON
// tag, to its value; docs/SCENARIOS.md documents the set.
var summaryMetrics = map[string]func(*Summary) float64{
	"duration_seconds":          func(s *Summary) float64 { return s.DurationSeconds },
	"nodes":                     func(s *Summary) float64 { return float64(s.Nodes) },
	"events":                    func(s *Summary) float64 { return float64(s.Events) },
	"offered_units":             func(s *Summary) float64 { return s.OfferedUnits },
	"completed_units":           func(s *Summary) float64 { return s.CompletedUnits },
	"lost_units":                func(s *Summary) float64 { return s.LostUnits },
	"energy_joules":             func(s *Summary) float64 { return s.EnergyJoules },
	"energy_per_unit_joules":    func(s *Summary) float64 { return s.EnergyPerUnitJoules },
	"ideal_energy_joules":       func(s *Summary) float64 { return s.IdealEnergyJoules },
	"energy_proportionality":    func(s *Summary) float64 { return s.EnergyProportionality },
	"avg_power_watts":           func(s *Summary) float64 { return s.AvgPowerWatts },
	"peak_power_watts":          func(s *Summary) float64 { return s.PeakPowerWatts },
	"failures":                  func(s *Summary) float64 { return float64(s.Failures) },
	"repairs":                   func(s *Summary) float64 { return float64(s.Repairs) },
	"throttle_events":           func(s *Summary) float64 { return float64(s.ThrottleEvents) },
	"powercap_events":           func(s *Summary) float64 { return float64(s.PowerCapEvents) },
	"stragglers":                func(s *Summary) float64 { return float64(s.Stragglers) },
	"down_node_seconds":         func(s *Summary) float64 { return s.DownNodeSeconds },
	"availability":              func(s *Summary) float64 { return s.Availability },
	"tail_latency_seconds":      func(s *Summary) float64 { return s.TailLatencySeconds },
	"avg_tail_latency_seconds":  func(s *Summary) float64 { return s.AvgTailLatencySeconds },
	"latency_saturated_samples": func(s *Summary) float64 { return float64(s.LatencySaturatedSamples) },
}

// Metric exposes summary fields by assertion name (see MetricNames).
func (s *Summary) Metric(name string) (float64, bool) {
	get, ok := summaryMetrics[name]
	if !ok {
		return 0, false
	}
	return get(s), true
}

// MetricNames lists the assertable summary fields, sorted.
func MetricNames() []string {
	names := make([]string, 0, len(summaryMetrics))
	for name := range summaryMetrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String renders the summary as the epfleet text report.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet %s: %d nodes, workload %s, %s virtual, seed %d\n",
		s.Name, s.Nodes, s.Workload, fmtSeconds(s.DurationSeconds), s.Seed)
	for _, ts := range s.PerType {
		fmt.Fprintf(&b, "  %-8s %5d nodes   %12.4g units   %10.4g J   %d failures, %s down\n",
			ts.Type, ts.Nodes, ts.CompletedUnits, ts.EnergyJoules, ts.Failures, fmtSeconds(ts.DownNodeSeconds))
	}
	fmt.Fprintf(&b, "  work    offered %.6g   completed %.6g   lost %.6g (%.2f%%)\n",
		s.OfferedUnits, s.CompletedUnits, s.LostUnits, 100*safeDiv(s.LostUnits, s.OfferedUnits))
	fmt.Fprintf(&b, "  energy  %.6g J   %.6g J/unit   avg %.4g W   peak %.4g W\n",
		s.EnergyJoules, s.EnergyPerUnitJoules, s.AvgPowerWatts, s.PeakPowerWatts)
	fmt.Fprintf(&b, "  EP      proportionality %.4f   (ideal %.6g J)\n",
		s.EnergyProportionality, s.IdealEnergyJoules)
	fmt.Fprintf(&b, "  chaos   %d failures, %d repairs, %d throttles, %d power caps, %d stragglers\n",
		s.Failures, s.Repairs, s.ThrottleEvents, s.PowerCapEvents, s.Stragglers)
	if s.LatencyKernel != "" {
		fmt.Fprintf(&b, "  latency p%g %s   max %.4gs   avg %.4gs   %d saturated samples\n",
			s.LatencyPercentile, s.LatencyKernel,
			s.TailLatencySeconds, s.AvgTailLatencySeconds, s.LatencySaturatedSamples)
	}
	fmt.Fprintf(&b, "  uptime  availability %.4f   %s node-downtime   %d events\n",
		s.Availability, fmtSeconds(s.DownNodeSeconds), s.Events)
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtSeconds(sec float64) string {
	switch {
	case sec >= 3600:
		return fmt.Sprintf("%.4gh", sec/3600)
	case sec >= 60:
		return fmt.Sprintf("%.4gm", sec/60)
	default:
		return fmt.Sprintf("%.4gs", sec)
	}
}

// summarize folds the per-node accounting into the Summary. Iteration
// is in node-index order and type rows are sorted by name, so the
// result is a pure function of the spec.
func (s *Simulator) summarize(events uint64) *Result {
	sum := Summary{
		Name:            s.spec.Name,
		Workload:        s.spec.Workload.Name,
		Seed:            s.spec.Seed,
		Nodes:           len(s.nodes),
		DurationSeconds: s.horizon,
		Events:          events,
		PeakPowerWatts:  s.peakPower,
		LostUnits:       s.lostUnits.Sum(),
		Failures:        s.counters.failures,
		Repairs:         s.counters.repairs,
		ThrottleEvents:  s.counters.throttles,
		PowerCapEvents:  s.counters.caps,
		Stragglers:      s.counters.stragglers,
	}
	if ls := s.spec.Latency; ls != nil {
		sum.LatencyKernel = ls.kernelLabel()
		sum.LatencyPercentile = ls.percentile()
		sum.TailLatencySeconds = s.latencyMax
		sum.LatencySaturatedSamples = s.latencySaturated
		if s.latencySamples > 0 {
			sum.AvgTailLatencySeconds = s.latencySum.Sum() / float64(s.latencySamples)
		}
	}

	var energy, done, ideal, down stats.KahanSum
	byType := make(map[string]*TypeSummary)
	order := []string{}
	for i := range s.nodes {
		n := &s.nodes[i]
		e := n.energy.Sum()
		u := n.done.Sum()
		energy.Add(e)
		done.Add(u)
		ideal.Add(u * n.idealUnitJ)
		down.Add(n.down)

		name := n.group.Type.Name
		ts := byType[name]
		if ts == nil {
			ts = &TypeSummary{Type: name}
			byType[name] = ts
			order = append(order, name)
		}
		ts.Nodes++
		ts.CompletedUnits += u
		ts.EnergyJoules += e
		ts.Failures += n.failures
		ts.DownNodeSeconds += n.down
	}
	sum.EnergyJoules = energy.Sum()
	sum.CompletedUnits = done.Sum()
	sum.OfferedUnits = s.offeredUnits.Sum()
	sum.IdealEnergyJoules = ideal.Sum()
	sum.DownNodeSeconds = down.Sum()
	if sum.CompletedUnits > 0 {
		sum.EnergyPerUnitJoules = sum.EnergyJoules / sum.CompletedUnits
	}
	if sum.EnergyJoules > 0 {
		sum.EnergyProportionality = sum.IdealEnergyJoules / sum.EnergyJoules
	}
	if s.horizon > 0 {
		sum.AvgPowerWatts = sum.EnergyJoules / s.horizon
		if n := float64(len(s.nodes)); n > 0 {
			sum.Availability = 1 - sum.DownNodeSeconds/(n*s.horizon)
		}
	}

	sort.Strings(order)
	for _, name := range order {
		sum.PerType = append(sum.PerType, *byType[name])
	}
	return &Result{Summary: sum}
}
