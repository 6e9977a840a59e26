// Package pareto computes the energy-deadline Pareto frontier over a set
// of cluster configurations (the authors' prior ICPP'14 result that
// Section III-D builds on): among all configurations that can run a
// workload, the frontier holds those for which no other configuration is
// both faster and more energy efficient.
package pareto

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/units"
)

// Point is one evaluated configuration.
type Point struct {
	Config cluster.Config
	Time   units.Seconds
	Energy units.Joules
	// Result retains the full model output for downstream analysis.
	Result model.Result
}

// Frontier extracts the Pareto-optimal subset of points, sorted by
// ascending time (and therefore descending energy along the frontier).
// Duplicate (time, energy) pairs keep their first representative. A
// point with a NaN time or energy (the model's 0*Inf on an overflowed
// unit time) orders against no other point, so it never joins the
// frontier.
func Frontier(points []Point) []Point {
	sorted := make([]Point, 0, len(points))
	for _, p := range points {
		if !math.IsNaN(float64(p.Time)) && !math.IsNaN(float64(p.Energy)) {
			sorted = append(sorted, p)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Time != sorted[j].Time {
			return sorted[i].Time < sorted[j].Time
		}
		return sorted[i].Energy < sorted[j].Energy
	})
	// Walk time classes explicitly and pick each class's lowest-energy
	// representative (first on ties) rather than trusting the slice
	// position after the sort: the head of the sorted slice used to be
	// accepted unconditionally, so a leading point whose Time ties a
	// strictly cheaper later point could never be displaced through the
	// bestEnergy epsilon path (the same-Time branch skipped it).
	var out []Point
	bestEnergy := units.Joules(0)
	i := 0
	for i < len(sorted) {
		j := i
		rep := i
		for j < len(sorted) && sorted[j].Time == sorted[i].Time {
			if sorted[j].Energy < sorted[rep].Energy {
				rep = j
			}
			j++
		}
		p := sorted[rep]
		if len(out) == 0 {
			out = append(out, p)
			bestEnergy = p.Energy
		} else if float64(p.Energy) < float64(bestEnergy)*(1-1e-9) {
			// Require a real energy improvement: configurations that
			// differ only by floating-point noise (e.g. 27 vs 32
			// identical nodes, whose per-unit energies are
			// mathematically equal) must not ride onto the frontier
			// through 1-ulp differences.
			out = append(out, p)
			bestEnergy = p.Energy
		}
		i = j
	}
	return out
}

// SweetRegion returns the frontier points meeting a deadline within an
// energy budget — the paper's "sweet region" of configurations that
// "meet a given execution time deadline with minimum energy". A zero
// deadline or budget disables that constraint.
func SweetRegion(frontier []Point, deadline units.Seconds, budget units.Joules) []Point {
	var out []Point
	for _, p := range frontier {
		if deadline > 0 && p.Time > deadline {
			continue
		}
		if budget > 0 && p.Energy > budget {
			continue
		}
		out = append(out, p)
	}
	return out
}

// MinEDP returns the point minimizing the energy-delay product — the
// scalar pick on the frontier when no explicit deadline is given. Every
// EDP-optimal configuration lies on the Pareto frontier, so calling this
// on the frontier loses nothing.
func MinEDP(points []Point) (Point, bool) {
	best := Point{}
	found := false
	for _, p := range points {
		if !found || p.Result.EDP() < best.Result.EDP() {
			best = p
			found = true
		}
	}
	return best, found
}

// MinEnergyUnderDeadline returns the frontier point with the lowest
// energy among those meeting the deadline, and ok=false if none does.
func MinEnergyUnderDeadline(frontier []Point, deadline units.Seconds) (Point, bool) {
	best := Point{}
	found := false
	for _, p := range frontier {
		if p.Time > deadline {
			continue
		}
		if !found || p.Energy < best.Energy {
			best = p
			found = true
		}
	}
	return best, found
}
