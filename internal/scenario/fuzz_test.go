package scenario

import (
	"testing"
)

// FuzzScenarioParse feeds arbitrary source text through the scenario
// pipeline short of running it: Parse, then Build and Validate on
// whatever parses. Bad input must come back as an error, never a panic.
func FuzzScenarioParse(f *testing.F) {
	catalog, registry := testEnv(f)
	f.Add([]byte(fullScenario))
	f.Add([]byte("workload: EP\nduration: 10s\nfleet:\n  - type: A9\n    count: 1\n"))
	f.Add([]byte("workload: EP\nduration: 10s\nslice: nan\nfleet:\n  - type: A9\n    count: 1\n"))
	f.Add([]byte("workload: EP\nduration: 10s\nchaos:\n  mtbf: inf\n  throttle_for: infinity\nfleet:\n  - type: A9\n    count: 1\n"))
	f.Add([]byte("workload: EP\nduration: 1h\nnodes: 12\nfleet:\n  - type: A9\n    weight: 3\n  - type: K10\n    weight: 1\n    freq: 800MHz\n"))
	f.Add([]byte("workload: EP\nduration: 60\nevents:\n  - at: 5\n    action: power_cap\n    fraction: 0.5\n    target:\n      type: K10\n      count: 1\n    for: 10\nfleet:\n  - type: K10\n    count: 2\n"))
	f.Add([]byte("workload: EP\nduration: 10s\nlatency:\n  kernel: mmk\n  servers: 4\n  percentile: 99\nfleet:\n  - type: A9\n    count: 1\n"))
	f.Add([]byte("- a\n- : b\n  c: [\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		sc, err := Parse(src)
		if err != nil {
			return
		}
		spec, err := sc.Build(catalog, registry)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Build returned a spec that fails Validate: %v", err)
		}
	})
}
