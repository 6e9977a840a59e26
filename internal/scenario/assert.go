package scenario

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/fleet"
)

// Assertion is one end-of-run check against a summary metric. Metric
// names are the fleet.Summary JSON field names (see fleet.MetricNames).
type Assertion struct {
	Metric string
	Op     string
	Value  float64
	// Tolerance widens == and != to |actual-value| <= Tolerance and
	// |actual-value| > Tolerance; ignored by the ordering operators.
	Tolerance float64
}

// assertOps lists the supported comparison operators.
var assertOps = map[string]bool{
	">=": true, "<=": true, ">": true, "<": true, "==": true, "!=": true,
}

// Validate checks the assertion shape without a summary.
func (a Assertion) Validate() error {
	if a.Metric == "" {
		return fmt.Errorf("scenario: assertion needs a metric")
	}
	known := false
	for _, name := range fleet.MetricNames() {
		if name == a.Metric {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("scenario: unknown metric %q (known: %s)",
			a.Metric, strings.Join(fleet.MetricNames(), ", "))
	}
	if !assertOps[a.Op] {
		return fmt.Errorf("scenario: assertion on %s has unknown operator %q (use >=, <=, >, <, ==, !=)",
			a.Metric, a.Op)
	}
	if a.Tolerance < 0 || math.IsNaN(a.Value) {
		return fmt.Errorf("scenario: assertion on %s has invalid value/tolerance", a.Metric)
	}
	return nil
}

// Check evaluates the assertion against a run summary.
func (a Assertion) Check(s fleet.Summary) error {
	actual, ok := s.Metric(a.Metric)
	if !ok {
		return fmt.Errorf("scenario: unknown metric %q", a.Metric)
	}
	pass := false
	switch a.Op {
	case ">=":
		pass = actual >= a.Value
	case "<=":
		pass = actual <= a.Value
	case ">":
		pass = actual > a.Value
	case "<":
		pass = actual < a.Value
	case "==":
		pass = math.Abs(actual-a.Value) <= a.Tolerance
	case "!=":
		pass = math.Abs(actual-a.Value) > a.Tolerance
	default:
		return fmt.Errorf("scenario: unknown operator %q", a.Op)
	}
	if !pass {
		return fmt.Errorf("assertion failed: %s = %g, want %s %g", a.Metric, actual, a.Op, a.Value)
	}
	return nil
}

// String renders the assertion the way scenario files spell it.
func (a Assertion) String() string {
	return fmt.Sprintf("%s %s %g", a.Metric, a.Op, a.Value)
}

// CheckAll runs every assertion and returns the failures.
func (s *Scenario) CheckAll(sum fleet.Summary) []error {
	var fails []error
	for _, a := range s.Asserts {
		if err := a.Check(sum); err != nil {
			fails = append(fails, err)
		}
	}
	return fails
}

func (d *decoder) assertions(v yamlValue) []Assertion {
	seq := d.sequence(v, "assertions")
	out := make([]Assertion, 0, len(seq))
	for i, item := range seq {
		path := fmt.Sprintf("assertions[%d]", i)
		m := d.mapping(item, path)
		var a Assertion
		for _, key := range d.knownKeys(m, path, "metric", "op", "value", "tolerance") {
			if d.err != nil {
				return nil
			}
			fv := m[key]
			p := path + "." + key
			switch key {
			case "metric":
				a.Metric = d.str(fv, p)
			case "op":
				a.Op = d.str(fv, p)
			case "value":
				a.Value = d.float(fv, p)
			case "tolerance":
				a.Tolerance = d.float(fv, p)
			}
		}
		if d.err != nil {
			return nil
		}
		if err := a.Validate(); err != nil {
			d.fail(path, "%v", err)
			return nil
		}
		out = append(out, a)
	}
	return out
}
