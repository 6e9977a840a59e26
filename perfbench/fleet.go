package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/hardware"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// fleet-1200 runs examples/scenarios/chaos-fleet.yaml, read from the
// checkout, at its own 1,200 nodes over 3 simulated minutes with the
// latency probe off. fleet/des/scenario do all the work and share no
// code path with the serve workloads, which makes it the no-change
// control for every other layer. An op of ~7 ms is short enough for
// its median to dodge the hypervisor's stolen time; 10,000 nodes gave
// 0.15-0.25 s ops whose median moved with it (see README.md).
const (
	fleetWorkload = "fleet-1200"
	fleetNodes    = 1200
	fleetDuration = units.Seconds(3 * 60)
	fleetScenario = "examples/scenarios/chaos-fleet.yaml"
	// fleetHistories is how many chaos histories (scenario seeds) one
	// run cycles through. Every chaos event (failure, repair, throttle,
	// power cap) advances and rebalances the whole fleet, so one
	// history's cost depends on its draw of chaos events; a run over 16
	// of them is not at the mercy of a single draw. The warm-up runs
	// each history once, ~0.1 CPU-s in all.
	fleetHistories = 16
)

// repoRoot is the checkout root relative to the working directory:
// run.sh runs the binary from the root, the tests from perfbench/.
var repoRoot = "."

type fleetWL struct {
	e        *wenv
	nodes    int
	yaml     []byte
	seeds    []uint64 // scenario seed of each history
	catalog  *hardware.Catalog
	registry *workload.Registry
	specs    []fleet.Spec // one per history
	want     [][]byte     // summary bytes of each history's warm-up run
	units    float64      // simulated node-seconds per run
	ck       tally

	parseMS, buildMS, newMS, runMS, events, eventsPerCPU []float64
}

// genFleet draws the scenario seeds of a run's chaos histories.
func genFleet(seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0xf1e))
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

// newFleet reads the scenario before any clock starts: the file is the
// workload's input.
func newFleet(e *wenv, nodes int, seeds []uint64) (*fleetWL, error) {
	yaml, err := os.ReadFile(filepath.Join(repoRoot, fleetScenario))
	if err != nil {
		return nil, err
	}
	c, r := paperEnv()
	return &fleetWL{e: e, nodes: nodes, yaml: yaml, seeds: seeds, catalog: c, registry: r}, nil
}

// build parses the scenario once and builds one spec per history.
func (f *fleetWL) build() error {
	id := f.e.tr.begin("scenario.Parse")
	t0 := time.Now()
	sc, err := scenario.Parse(f.yaml)
	f.parseMS = append(f.parseMS, msSince(t0))
	f.e.tr.end(id)
	if err != nil {
		return err
	}
	sc.Nodes, sc.Duration, sc.Latency = f.nodes, fleetDuration, nil
	f.specs = f.specs[:0]
	for _, seed := range f.seeds {
		sc.Seed = seed
		id = f.e.tr.begin("scenario.Build")
		t0 = time.Now()
		spec, err := sc.Build(f.catalog, f.registry)
		f.buildMS = append(f.buildMS, msSince(t0))
		f.e.tr.end(id)
		if err != nil {
			return err
		}
		f.specs = append(f.specs, spec)
	}
	return nil
}

// run is one op's program work on history k: fleet.New + Run.
func (f *fleetWL) run(k int) (*fleet.Summary, time.Duration, error) {
	t0 := time.Now()
	id := f.e.tr.begin("fleet.New")
	sim, err := fleet.New(f.specs[k])
	f.e.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	tn := time.Now()
	c0 := cpuSeconds()
	id = f.e.tr.begin("fleet.Run")
	res, err := sim.Run()
	f.e.tr.end(id)
	cpu := cpuSeconds() - c0
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	f.newMS = append(f.newMS, float64(tn.Sub(t0))/1e6)
	f.runMS = append(f.runMS, msSince(tn))
	f.events = append(f.events, float64(res.Summary.Events))
	if cpu > 0 {
		f.eventsPerCPU = append(f.eventsPerCPU, float64(res.Summary.Events)/cpu)
	}
	return &res.Summary, d, nil
}

// setup builds the specs and runs each history once, keeping its
// summary for the timed ops to match.
func (f *fleetWL) setup() error {
	reps := 1
	if f.e.mode == directMode {
		reps = 5 // scenario.parse_ms and build_ms are medians
	}
	for range reps {
		if err := f.build(); err != nil {
			return err
		}
	}
	for k := range f.specs {
		sum, _, err := f.run(k)
		if err != nil {
			return err
		}
		got, err := json.Marshal(sum)
		if err != nil {
			return err
		}
		f.want = append(f.want, got)
		f.units = float64(sum.Nodes) * sum.DurationSeconds
		f.ck.add("fleet run", checkConservation(sum))
	}
	// The per-layer fleet figures are of the timed ops alone.
	f.newMS, f.runMS, f.events, f.eventsPerCPU = nil, nil, nil, nil
	return nil
}

func (f *fleetWL) checkWarmup() (int, int, string) { return f.ck.result() }

// checkConservation is fleet's work-accounting invariant.
func checkConservation(s *fleet.Summary) error {
	lhs, rhs := s.OfferedUnits, s.CompletedUnits+s.LostUnits
	if math.Abs(lhs-rhs) > 1e-9*math.Max(math.Abs(lhs), 1) {
		return fmt.Errorf("offered %v != completed %v + lost %v", s.OfferedUnits, s.CompletedUnits, s.LostUnits)
	}
	return nil
}

// op i runs history i mod fleetHistories, so every history gets an
// equal share of each process's ops.
func (f *fleetWL) op(i int) opResult {
	res := opResult{key: i % len(f.specs)}
	// Each op starts on a collected heap, as a fresh epfleet process
	// does, so that how much of the last simulation is still garbage
	// does not decide the peak RSS or where the next op's collections
	// fall. The collection is outside the op's latency but inside the
	// timed phase's CPU clock.
	runtime.GC()
	sum, d, err := f.run(res.key)
	res.latency = d
	if err != nil {
		res.reason = err.Error()
		return res
	}
	got, err := json.Marshal(sum)
	if err != nil {
		res.reason = err.Error()
		return res
	}
	res.body = got
	switch {
	case checkConservation(sum) != nil:
		res.reason = checkConservation(sum).Error()
	case string(got) != string(f.want[res.key]):
		res.reason = fmt.Sprintf("history %d: summary differs from its warm-up run's", res.key)
	default:
		res.ok = true
		if f.e.mode == directMode {
			res.direct, res.tol = sum, relTol(0)
		}
	}
	if res.ok {
		res.units = f.units
	}
	return res
}

func (f *fleetWL) report(extra map[string]float64) {
	if f.e.mode != directMode {
		return
	}
	extra["scenario.parse_ms"] = median(f.parseMS)
	extra["scenario.build_ms"] = median(f.buildMS)
	extra["fleet.new_ms"] = median(f.newMS)
	extra["fleet.run_ms"] = median(f.runMS)
	extra["fleet.events_per_op"] = median(f.events)
	extra["fleet.events_per_cpu_s"] = median(f.eventsPerCPU)
}
