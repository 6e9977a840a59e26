//go:build race

package pareto

// raceEnabled reports whether the test binary was built with the race
// detector. The detector makes sync.Pool drop items at random, so
// allocation bounds that rest on a warm pool skip their assertion.
const raceEnabled = true
