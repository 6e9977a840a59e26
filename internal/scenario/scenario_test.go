package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/hardware"
	"repro/internal/workload"
)

func testEnv(t testing.TB) (*hardware.Catalog, *workload.Registry) {
	t.Helper()
	catalog := hardware.DefaultCatalog()
	registry, err := workload.PaperRegistry(catalog)
	if err != nil {
		t.Fatal(err)
	}
	return catalog, registry
}

const fullScenario = `
name: ep-mixed
description: mixed fleet with chaos, timed events and assertions
workload: EP
seed: 11
duration: 5m
slice: 2s
utilization: 0.7
fleet:
  - type: A9
    count: 8
  - type: K10
    count: 2
chaos:
  mtbf: 20m
  mttr: 3m
  straggler_prob: 0.1
  straggler_slowdown: 1.5
events:
  - at: 60s
    action: fail
    target:
      type: K10
    for: 30s
  - at: 3m
    action: set_utilization
    utilization: 0.3
assertions:
  - metric: availability
    op: "<"
    value: 1
  - metric: lost_units
    op: ">="
    value: 0
`

func TestParseFullScenario(t *testing.T) {
	sc, err := Parse([]byte(fullScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "ep-mixed" || sc.Workload != "EP" || sc.Seed != 11 {
		t.Errorf("header decoded wrong: %+v", sc)
	}
	if float64(sc.Duration) != 300 || float64(sc.Slice) != 2 || sc.Utilization != 0.7 {
		t.Errorf("durations decoded wrong: %+v", sc)
	}
	if len(sc.Fleet) != 2 || sc.Fleet[0].Type != "A9" || sc.Fleet[0].Count != 8 {
		t.Errorf("fleet decoded wrong: %+v", sc.Fleet)
	}
	if !sc.Chaos.Enabled || float64(sc.Chaos.MTBF) != 1200 || sc.Chaos.StragglerSlowdown != 1.5 {
		t.Errorf("chaos decoded wrong: %+v", sc.Chaos)
	}
	if len(sc.Events) != 2 {
		t.Fatalf("events decoded wrong: %+v", sc.Events)
	}
	ev := sc.Events[0]
	if float64(ev.At) != 60 || ev.Action != fleet.ActionFail ||
		ev.Target.Type != "K10" || float64(ev.For) != 30 {
		t.Errorf("event[0] decoded wrong: %+v", ev)
	}
	if sc.Events[1].Utilization != 0.3 {
		t.Errorf("event[1] decoded wrong: %+v", sc.Events[1])
	}
	if len(sc.Asserts) != 2 || sc.Asserts[0].Metric != "availability" || sc.Asserts[0].Op != "<" {
		t.Errorf("assertions decoded wrong: %+v", sc.Asserts)
	}
}

func TestBuildAndRun(t *testing.T) {
	catalog, registry := testEnv(t)
	sc, err := Parse([]byte(fullScenario))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Build(catalog, registry)
	if err != nil {
		t.Fatal(err)
	}
	if spec.NodeCount() != 10 {
		t.Fatalf("spec has %d nodes, want 10", spec.NodeCount())
	}
	sim, err := fleet.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fails := sc.CheckAll(res.Summary); len(fails) != 0 {
		t.Errorf("assertions failed: %v", fails)
	}
}

func TestWeightedFleet(t *testing.T) {
	catalog, registry := testEnv(t)
	sc, err := Parse([]byte(`
workload: EP
duration: 10s
nodes: 100
fleet:
  - type: A9
    weight: 3
  - type: K10
    weight: 1
`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Build(catalog, registry)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Templates[0].Count != 75 || spec.Templates[1].Count != 25 {
		t.Errorf("weights 3:1 over 100 gave %d:%d",
			spec.Templates[0].Count, spec.Templates[1].Count)
	}
}

func TestWeightedFleetLargestRemainder(t *testing.T) {
	catalog, registry := testEnv(t)
	sc, err := Parse([]byte(`
workload: EP
duration: 10s
nodes: 10
fleet:
  - type: A9
    weight: 1
  - type: K10
    weight: 2
`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Build(catalog, registry)
	if err != nil {
		t.Fatal(err)
	}
	// 10/3 = 3.33 and 6.67: largest remainder gives the extra node to K10.
	if spec.Templates[0].Count+spec.Templates[1].Count != 10 {
		t.Errorf("weighted counts do not sum to the total: %+v", spec.Templates)
	}
	if spec.Templates[0].Count != 3 || spec.Templates[1].Count != 7 {
		t.Errorf("weights 1:2 over 10 gave %d:%d",
			spec.Templates[0].Count, spec.Templates[1].Count)
	}
}

func TestMixedCountAndWeight(t *testing.T) {
	catalog, registry := testEnv(t)
	sc, err := Parse([]byte(`
workload: EP
duration: 10s
nodes: 20
fleet:
  - type: K10
    count: 4
  - type: A9
    weight: 1
`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Build(catalog, registry)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Templates[0].Count != 4 || spec.Templates[1].Count != 16 {
		t.Errorf("explicit 4 + weighted rest over 20 gave %d:%d",
			spec.Templates[0].Count, spec.Templates[1].Count)
	}
}

func TestTemplateOperatingPoint(t *testing.T) {
	catalog, registry := testEnv(t)
	sc, err := Parse([]byte(`
workload: EP
duration: 10s
fleet:
  - type: A9
    count: 4
    cores: 2
    freq: 800MHz
`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Build(catalog, registry)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Templates[0]
	if g.Cores != 2 || float64(g.Freq) != 800e6 {
		t.Errorf("operating point = %d cores at %v", g.Cores, g.Freq)
	}
}

func TestSchemaErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing workload", "duration: 10s\nfleet:\n  - type: A9\n    count: 1\n", "workload"},
		{"missing duration", "workload: EP\nfleet:\n  - type: A9\n    count: 1\n", "duration"},
		{"missing fleet", "workload: EP\nduration: 10s\n", "fleet"},
		{"unknown top key", "workload: EP\nduration: 10s\nflete:\n  - type: A9\n    count: 1\n", `unknown field "flete"`},
		{"bad duration", "workload: EP\nduration: tomorrow\nfleet:\n  - type: A9\n    count: 1\n", "not a duration"},
		{"bad number", "workload: EP\nduration: 10s\nutilization: lots\nfleet:\n  - type: A9\n    count: 1\n", "not a number"},
		{"bad seed", "workload: EP\nduration: 10s\nseed: -4\nfleet:\n  - type: A9\n    count: 1\n", "seed"},
		{"template no type", "workload: EP\nduration: 10s\nfleet:\n  - count: 1\n", "fleet[0].type"},
		{"count and weight", "workload: EP\nduration: 10s\nfleet:\n  - type: A9\n    count: 1\n    weight: 2\n", "exactly one of count and weight"},
		{"neither count nor weight", "workload: EP\nduration: 10s\nfleet:\n  - type: A9\n", "exactly one of count and weight"},
		{"bad freq", "workload: EP\nduration: 10s\nfleet:\n  - type: A9\n    count: 1\n    freq: fast\n", "not a frequency"},
		{"unknown chaos key", "workload: EP\nduration: 10s\nchaos:\n  mtbz: 10s\nfleet:\n  - type: A9\n    count: 1\n", `unknown field "mtbz"`},
		{"event no action", "workload: EP\nduration: 10s\nevents:\n  - at: 1s\nfleet:\n  - type: A9\n    count: 1\n", "action"},
		{"bad target", "workload: EP\nduration: 10s\nevents:\n  - at: 1s\n    action: fail\n    target: some\nfleet:\n  - type: A9\n    count: 1\n", "not a target"},
		{"bad assert metric", "workload: EP\nduration: 10s\nassertions:\n  - metric: vibes\n    op: \">\"\n    value: 0\nfleet:\n  - type: A9\n    count: 1\n", "unknown metric"},
		{"bad assert op", "workload: EP\nduration: 10s\nassertions:\n  - metric: nodes\n    op: \"~=\"\n    value: 0\nfleet:\n  - type: A9\n    count: 1\n", "unknown operator"},
		{"fleet not a list", "workload: EP\nduration: 10s\nfleet:\n  type: A9\n", "expected a list"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestNonFiniteDurations: a bare number in a duration field must be
// finite. strconv.ParseFloat accepts nan, inf and infinity; each one, in
// every duration field, fails at parse time with the field path and the
// same line-numbered message a non-finite float field gets.
func TestNonFiniteDurations(t *testing.T) {
	base := "workload: EP\nfleet:\n  - type: A9\n    count: 1\n"
	fields := []struct {
		path, src string
		line      int
	}{
		{"duration", "duration: %s\n", 5},
		{"slice", "duration: 10s\nslice: %s\n", 6},
		{"chaos.mtbf", "duration: 10s\nchaos:\n  mtbf: %s\n", 7},
		{"chaos.mttr", "duration: 10s\nchaos:\n  mttr: %s\n", 7},
		{"chaos.throttle_every", "duration: 10s\nchaos:\n  throttle_every: %s\n", 7},
		{"chaos.throttle_for", "duration: 10s\nchaos:\n  throttle_for: %s\n", 7},
		{"chaos.cap_every", "duration: 10s\nchaos:\n  cap_every: %s\n", 7},
		{"chaos.cap_for", "duration: 10s\nchaos:\n  cap_for: %s\n", 7},
		{"events[0].at", "duration: 10s\nevents:\n  - at: %s\n    action: fail\n", 7},
		{"events[0].for", "duration: 10s\nevents:\n  - at: 1s\n    action: fail\n    for: %s\n", 9},
	}
	for _, f := range fields {
		for _, v := range []string{"nan", "NaN", "inf", "+Inf", "-inf", "infinity", "-Infinity"} {
			src := base + fmt.Sprintf(f.src, v)
			_, err := Parse([]byte(src))
			want := fmt.Sprintf("%s: line %d: %q is not a number", f.path, f.line, v)
			if err == nil || err.Error() != want {
				t.Errorf("%s = %s: error %v, want %q", f.path, v, err, want)
			}
		}
		// A finite bare number still reads as seconds.
		if _, err := Parse([]byte(base + fmt.Sprintf(f.src, "2.5"))); err != nil {
			t.Errorf("%s = 2.5: %v", f.path, err)
		}
	}
}

// TestFleetSizeCapLines: a nodes total, one template count, or counts
// that together pass fleet.MaxNodes fail at parse time, on the line
// where the fleet passes the cap; a fleet of exactly the cap parses.
func TestFleetSizeCapLines(t *testing.T) {
	chaos, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "chaos-fleet.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Replace(string(chaos), "\nnodes: 1200\n", "\nnodes: 100000000\n", 1)
	if huge == string(chaos) {
		t.Fatal("chaos-fleet.yaml has no nodes: 1200 line")
	}
	head := "workload: EP\nduration: 10s\nfleet:\n"
	for _, tc := range []struct{ name, src, want string }{
		{"nodes total", huge, "nodes: line 13: 100000000 takes the fleet past 1000000 nodes"},
		{"one count", head + "  - type: A9\n    count: 1000001\n",
			"fleet[0].count: line 5: 1000001 takes the fleet past 1000000 nodes"},
		{"two counts", head + "  - type: A9\n    count: 600000\n  - type: K10\n    count: 400001\n",
			"fleet[1].count: line 7: 400001 takes the fleet past 1000000 nodes"},
	} {
		if _, err := Parse([]byte(tc.src)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := Parse([]byte(head + "  - type: A9\n    count: 600000\n  - type: K10\n    count: 400000\n")); err != nil {
		t.Errorf("a fleet of exactly %d nodes: %v", fleet.MaxNodes, err)
	}
}

// TestFirstFaultIsStable: a file with several faults reports the same
// one on every parse, on its line. The decoder used to range over Go
// maps, so chaos-fleet.yaml with a negative seed, a node count over the
// cap and a non-numeric utilization reported any of the three.
func TestFirstFaultIsStable(t *testing.T) {
	chaos, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "chaos-fleet.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(chaos)
	for _, r := range [][2]string{
		{"\nseed: 42\n", "\nseed: -1\n"},
		{"\nnodes: 1200\n", "\nnodes: 100000000\n"},
		{"\nutilization: 0.7\n", "\nutilization: x\n"},
	} {
		faulty := strings.Replace(src, r[0], r[1], 1)
		if faulty == src {
			t.Fatalf("chaos-fleet.yaml has no %q line", strings.TrimSpace(r[0]))
		}
		src = faulty
	}
	const want = "seed: line 9: must be non-negative, got -1"
	for i := 0; i < 100; i++ {
		if _, err := Parse([]byte(src)); err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %q", i, err, want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	catalog, registry := testEnv(t)
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown workload", "workload: nope\nduration: 10s\nfleet:\n  - type: A9\n    count: 1\n", "workload"},
		{"unknown node type", "workload: EP\nduration: 10s\nfleet:\n  - type: Z80\n    count: 1\n", "fleet[0]"},
		{"weights without total", "workload: EP\nduration: 10s\nfleet:\n  - type: A9\n    weight: 1\n", "nodes total"},
		{"counts contradict total", "workload: EP\nduration: 10s\nnodes: 5\nfleet:\n  - type: A9\n    count: 4\n", "sum to 4"},
		{"bad cores", "workload: EP\nduration: 10s\nfleet:\n  - type: A9\n    count: 1\n    cores: 99\n", "cores"},
		{"bad freq level", "workload: EP\nduration: 10s\nfleet:\n  - type: A9\n    count: 1\n    freq: 1.23GHz\n", "unsupported frequency"},
		{"event past horizon", "workload: EP\nduration: 10s\nevents:\n  - at: 60s\n    action: fail\nfleet:\n  - type: A9\n    count: 1\n", "outside"},
	}
	for _, tc := range cases {
		sc, err := Parse([]byte(tc.src))
		if err != nil {
			t.Errorf("%s: parse failed early: %v", tc.name, err)
			continue
		}
		_, err = sc.Build(catalog, registry)
		if err == nil {
			t.Errorf("%s: built", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestAssertionChecks(t *testing.T) {
	s := fleet.Summary{Nodes: 10, CompletedUnits: 100}
	pass := []Assertion{
		{Metric: "nodes", Op: "==", Value: 10},
		{Metric: "nodes", Op: ">=", Value: 10},
		{Metric: "nodes", Op: "<", Value: 11},
		{Metric: "completed_units", Op: "!=", Value: 0},
		{Metric: "completed_units", Op: "==", Value: 100.4, Tolerance: 0.5},
	}
	for _, a := range pass {
		if err := a.Check(s); err != nil {
			t.Errorf("%v: %v", a, err)
		}
	}
	fail := []Assertion{
		{Metric: "nodes", Op: ">", Value: 10},
		{Metric: "completed_units", Op: "==", Value: 99},
		{Metric: "completed_units", Op: "!=", Value: 100.1, Tolerance: 0.5},
	}
	for _, a := range fail {
		if err := a.Check(s); err == nil {
			t.Errorf("%v: passed", a)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.yaml")
	if err := os.WriteFile(path, []byte(fullScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "ep-mixed" {
		t.Errorf("loaded name %q", sc.Name)
	}
	if _, err := Load(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}
