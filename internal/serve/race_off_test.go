//go:build !race

package serve

// raceEnabled reports whether the test binary was built with the race
// detector; wall-time bounds skip their assertion under it.
const raceEnabled = false
