package scenario

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/hardware"
	"repro/internal/queueing"
	"repro/internal/units"
	"repro/internal/workload"
)

// Scenario is the decoded form of one scenario file. Durations are kept
// in seconds; node-type and workload names are resolved by Build.
type Scenario struct {
	Name        string
	Description string
	Workload    string
	Seed        uint64
	Duration    units.Seconds
	Slice       units.Seconds
	Utilization float64
	// Nodes is the total fleet size for weight-based templates; zero
	// when every template carries an explicit count.
	Nodes   int
	Fleet   []Template
	Chaos   fleet.Chaos
	Events  []fleet.TimedEvent
	Latency *fleet.LatencySpec
	Asserts []Assertion
}

// Template is one fleet template: a homogeneous slab of nodes. Exactly
// one of Count and Weight is set; weights share the scenario's total
// node count by largest remainder.
type Template struct {
	Type   string
	Count  int
	Weight float64
	// Cores and FreqHz override the type's full operating point when
	// positive (defaults: all cores at f_max).
	Cores  int
	FreqHz float64
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return sc, nil
}

// Parse decodes scenario source text.
func Parse(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	sc := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	return sc, nil
}

// decoder walks the untyped parse tree, recording the first error with
// its field path. All accessors are nil-safe after an error so decode
// code reads straight-line.
type decoder struct {
	err error
}

func (d *decoder) fail(path, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) mapping(v yamlValue, path string) map[string]yamlValue {
	if d.err != nil {
		return nil
	}
	m, ok := v.(map[string]yamlValue)
	if !ok {
		d.fail(path, "expected a mapping, got %s", describeYAML(v))
		return nil
	}
	return m
}

func (d *decoder) sequence(v yamlValue, path string) []yamlValue {
	if d.err != nil {
		return nil
	}
	s, ok := v.([]yamlValue)
	if !ok {
		d.fail(path, "expected a list, got %s", describeYAML(v))
		return nil
	}
	return s
}

func (d *decoder) scalarAt(v yamlValue, path string) (scalar, bool) {
	if d.err != nil {
		return scalar{}, false
	}
	s, ok := v.(scalar)
	if !ok {
		d.fail(path, "expected a scalar, got %s", describeYAML(v))
		return scalar{}, false
	}
	return s, true
}

func describeYAML(v yamlValue) string {
	switch v.(type) {
	case map[string]yamlValue:
		return "a mapping"
	case []yamlValue:
		return "a list"
	case scalar:
		return "a scalar"
	default:
		return "nothing"
	}
}

func (d *decoder) str(v yamlValue, path string) string {
	s, ok := d.scalarAt(v, path)
	if !ok {
		return ""
	}
	return s.text
}

func (d *decoder) float(v yamlValue, path string) float64 {
	s, ok := d.scalarAt(v, path)
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(s.text, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		d.fail(path, "line %d: %q is not a number", s.line, s.text)
		return 0
	}
	return f
}

func (d *decoder) integer(v yamlValue, path string) int {
	s, ok := d.scalarAt(v, path)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(s.text)
	if err != nil {
		d.fail(path, "line %d: %q is not an integer", s.line, s.text)
		return 0
	}
	return n
}

func (d *decoder) boolean(v yamlValue, path string) bool {
	s, ok := d.scalarAt(v, path)
	if !ok {
		return false
	}
	switch s.text {
	case "true":
		return true
	case "false":
		return false
	}
	d.fail(path, "line %d: %q is not true or false", s.line, s.text)
	return false
}

// duration accepts Go duration strings ("90s", "10m", "1h30m") and bare
// finite numbers meaning seconds.
func (d *decoder) duration(v yamlValue, path string) units.Seconds {
	s, ok := d.scalarAt(v, path)
	if !ok {
		return 0
	}
	if f, err := strconv.ParseFloat(s.text, 64); err == nil {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			d.fail(path, "line %d: %q is not a number", s.line, s.text)
			return 0
		}
		return units.Seconds(f)
	}
	dur, err := time.ParseDuration(s.text)
	if err != nil {
		d.fail(path, "line %d: %q is not a duration (use 90s, 10m, 1h30m or a number of seconds)", s.line, s.text)
		return 0
	}
	return units.Seconds(dur.Seconds())
}

// frequency accepts "1.4GHz", "800MHz" or a bare number of hertz.
func (d *decoder) frequency(v yamlValue, path string) float64 {
	s, ok := d.scalarAt(v, path)
	if !ok {
		return 0
	}
	text, mult := s.text, 1.0
	switch {
	case strings.HasSuffix(text, "GHz"):
		text, mult = strings.TrimSuffix(text, "GHz"), 1e9
	case strings.HasSuffix(text, "MHz"):
		text, mult = strings.TrimSuffix(text, "MHz"), 1e6
	case strings.HasSuffix(text, "Hz"):
		text = strings.TrimSuffix(text, "Hz")
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil || f <= 0 {
		d.fail(path, "line %d: %q is not a frequency (use 1.4GHz, 800MHz or hertz)", s.line, s.text)
		return 0
	}
	return f * mult
}

// knownKeys rejects misspelled fields instead of ignoring them, and
// returns the keys m holds in the order known lists them. A block
// decodes its fields in that fixed order, so a block with several
// faults always reports the same first one.
func (d *decoder) knownKeys(m map[string]yamlValue, path string, known ...string) []string {
	keys := make([]string, 0, len(m))
	for _, k := range known {
		if _, ok := m[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) < len(m) {
		var bad []string
		for k := range m {
			if !slices.Contains(known, k) {
				bad = append(bad, k)
			}
		}
		d.fail(path, "unknown field %q (known fields: %s)", slices.Min(bad), strings.Join(known, ", "))
		return nil
	}
	return keys
}

func (d *decoder) scenario(root yamlValue) *Scenario {
	m := d.mapping(root, "scenario")
	sc := &Scenario{Seed: 1, Utilization: 1, Slice: 1}
	for _, key := range d.knownKeys(m, "scenario",
		"name", "description", "workload", "seed", "duration", "slice",
		"utilization", "nodes", "fleet", "chaos", "events", "latency",
		"assertions") {
		if d.err != nil {
			return nil
		}
		v := m[key]
		switch key {
		case "name":
			sc.Name = d.str(v, "name")
		case "description":
			sc.Description = d.str(v, "description")
		case "workload":
			sc.Workload = d.str(v, "workload")
		case "seed":
			n := d.integer(v, "seed")
			if n < 0 {
				d.fail("seed", "line %d: must be non-negative, got %d", v.(scalar).line, n)
			}
			sc.Seed = uint64(n)
		case "duration":
			sc.Duration = d.duration(v, "duration")
		case "slice":
			sc.Slice = d.duration(v, "slice")
		case "utilization":
			sc.Utilization = d.float(v, "utilization")
		case "nodes":
			sc.Nodes = d.nodeCount(v, "nodes", 0)
		case "fleet":
			sc.Fleet = d.fleetTemplates(v)
		case "chaos":
			sc.Chaos = d.chaos(v)
		case "events":
			sc.Events = d.events(v)
		case "latency":
			sc.Latency = d.latency(v)
		case "assertions":
			sc.Asserts = d.assertions(v)
		}
	}
	if d.err != nil {
		return nil
	}
	if sc.Workload == "" {
		d.fail("workload", "is required")
	}
	if sc.Duration <= 0 {
		d.fail("duration", "is required and must be positive")
	}
	if len(sc.Fleet) == 0 {
		d.fail("fleet", "needs at least one template")
	}
	if d.err != nil {
		return nil
	}
	return sc
}

// nodeCount decodes a node count (the nodes: total or a template's
// count:) that adds to the taken nodes already counted. Where the sum
// passes fleet.MaxNodes it fails on the count's own line, so the cap
// is reported where the fault is rather than by the built fleet.
func (d *decoder) nodeCount(v yamlValue, path string, taken int) int {
	n := d.integer(v, path)
	if d.err == nil && n > fleet.MaxNodes-taken {
		d.fail(path, "line %d: %d takes the fleet past %d nodes", v.(scalar).line, n, fleet.MaxNodes)
	}
	return n
}

func (d *decoder) fleetTemplates(v yamlValue) []Template {
	seq := d.sequence(v, "fleet")
	out := make([]Template, 0, len(seq))
	counted := 0 // nodes of the explicit counts so far
	for i, item := range seq {
		path := fmt.Sprintf("fleet[%d]", i)
		m := d.mapping(item, path)
		var t Template
		for _, key := range d.knownKeys(m, path, "type", "count", "weight", "cores", "freq") {
			if d.err != nil {
				return nil
			}
			fv := m[key]
			p := path + "." + key
			switch key {
			case "type":
				t.Type = d.str(fv, p)
			case "count":
				t.Count = d.nodeCount(fv, p, counted)
			case "weight":
				t.Weight = d.float(fv, p)
			case "cores":
				t.Cores = d.integer(fv, p)
			case "freq":
				t.FreqHz = d.frequency(fv, p)
			}
		}
		if d.err != nil {
			return nil
		}
		if t.Type == "" {
			d.fail(path+".type", "is required")
			return nil
		}
		if (t.Count > 0) == (t.Weight > 0) {
			d.fail(path, "needs exactly one of count and weight")
			return nil
		}
		if t.Count < 0 || t.Weight < 0 {
			d.fail(path, "count and weight must be positive")
			return nil
		}
		counted += t.Count
		out = append(out, t)
	}
	return out
}

func (d *decoder) chaos(v yamlValue) fleet.Chaos {
	m := d.mapping(v, "chaos")
	var c fleet.Chaos
	c.Enabled = true // presence of the block enables the layer
	for _, key := range d.knownKeys(m, "chaos",
		"enabled", "mtbf", "mttr", "throttle_every", "throttle_for",
		"throttle_factor", "cap_every", "cap_for", "cap_fraction",
		"straggler_prob", "straggler_slowdown") {
		if d.err != nil {
			return c
		}
		fv := m[key]
		p := "chaos." + key
		switch key {
		case "enabled":
			c.Enabled = d.boolean(fv, p)
		case "mtbf":
			c.MTBF = d.duration(fv, p)
		case "mttr":
			c.MTTR = d.duration(fv, p)
		case "throttle_every":
			c.ThrottleEvery = d.duration(fv, p)
		case "throttle_for":
			c.ThrottleFor = d.duration(fv, p)
		case "throttle_factor":
			c.ThrottleFactor = d.float(fv, p)
		case "cap_every":
			c.CapEvery = d.duration(fv, p)
		case "cap_for":
			c.CapFor = d.duration(fv, p)
		case "cap_fraction":
			c.CapFraction = d.float(fv, p)
		case "straggler_prob":
			c.StragglerProb = d.float(fv, p)
		case "straggler_slowdown":
			c.StragglerSlowdown = d.float(fv, p)
		}
	}
	return c
}

func (d *decoder) events(v yamlValue) []fleet.TimedEvent {
	seq := d.sequence(v, "events")
	out := make([]fleet.TimedEvent, 0, len(seq))
	for i, item := range seq {
		path := fmt.Sprintf("events[%d]", i)
		m := d.mapping(item, path)
		ev := fleet.TimedEvent{Target: fleet.EveryNode()}
		for _, key := range d.knownKeys(m, path,
			"at", "action", "target", "factor", "slowdown", "watts",
			"fraction", "utilization", "for") {
			if d.err != nil {
				return nil
			}
			fv := m[key]
			p := path + "." + key
			switch key {
			case "at":
				ev.At = d.duration(fv, p)
			case "action":
				ev.Action = fleet.Action(d.str(fv, p))
			case "target":
				ev.Target = d.target(fv, p)
			case "factor":
				ev.Factor = d.float(fv, p)
			case "slowdown":
				ev.Slowdown = d.float(fv, p)
			case "watts":
				ev.Watts = units.Watts(d.float(fv, p))
			case "fraction":
				ev.Fraction = d.float(fv, p)
			case "utilization":
				ev.Utilization = d.float(fv, p)
			case "for":
				ev.For = d.duration(fv, p)
			}
		}
		if d.err != nil {
			return nil
		}
		if ev.Action == "" {
			d.fail(path+".action", "is required")
			return nil
		}
		out = append(out, ev)
	}
	return out
}

// latency decodes the tail-latency probe block: kernel selects the
// queueing model (md1 default, mg1, mmk), scv the M/G/1 service-time
// variability, servers the M/M/k pool size (omit for the alive node
// count), percentile the probed response-time percentile (default 95).
func (d *decoder) latency(v yamlValue) *fleet.LatencySpec {
	m := d.mapping(v, "latency")
	ls := &fleet.LatencySpec{}
	for _, key := range d.knownKeys(m, "latency", "kernel", "scv", "servers", "percentile") {
		if d.err != nil {
			return nil
		}
		fv := m[key]
		p := "latency." + key
		switch key {
		case "kernel":
			kind, err := queueing.ParseKind(d.str(fv, p))
			if err != nil {
				d.fail(p, "%v", err)
				return nil
			}
			ls.Kernel.Kind = kind
		case "scv":
			ls.Kernel.SCV = d.float(fv, p)
		case "servers":
			ls.Kernel.Servers = d.integer(fv, p)
		case "percentile":
			ls.Percentile = d.float(fv, p)
		}
	}
	if d.err != nil {
		return nil
	}
	if err := ls.Validate(); err != nil {
		d.fail("latency", "%v", err)
		return nil
	}
	return ls
}

// target decodes either the shorthand string "all" or a mapping with
// type/node/count/fraction.
func (d *decoder) target(v yamlValue, path string) fleet.Target {
	if s, ok := v.(scalar); ok {
		if s.text == "all" {
			return fleet.EveryNode()
		}
		d.fail(path, "line %d: %q is not a target (use \"all\" or a mapping)", s.line, s.text)
		return fleet.EveryNode()
	}
	m := d.mapping(v, path)
	t := fleet.EveryNode()
	for _, key := range d.knownKeys(m, path, "type", "node", "count", "fraction") {
		if d.err != nil {
			return t
		}
		fv := m[key]
		p := path + "." + key
		switch key {
		case "type":
			t.Type = d.str(fv, p)
		case "node":
			t.Node = d.integer(fv, p)
		case "count":
			t.Count = d.integer(fv, p)
		case "fraction":
			t.Fraction = d.float(fv, p)
		}
	}
	return t
}

// Build resolves names against the catalog and workload registry and
// returns a runnable fleet spec.
func (s *Scenario) Build(catalog *hardware.Catalog, registry *workload.Registry) (fleet.Spec, error) {
	wl, err := registry.Lookup(s.Workload)
	if err != nil {
		return fleet.Spec{}, fmt.Errorf("scenario: workload: %w", err)
	}
	templates, err := s.buildTemplates(catalog)
	if err != nil {
		return fleet.Spec{}, err
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	spec := fleet.Spec{
		Name:        name,
		Workload:    wl,
		Templates:   templates,
		Duration:    s.Duration,
		Slice:       s.Slice,
		Utilization: s.Utilization,
		Seed:        s.Seed,
		Chaos:       s.Chaos,
		Events:      s.Events,
		Latency:     s.Latency,
	}
	if err := spec.Validate(); err != nil {
		return fleet.Spec{}, err
	}
	return spec, nil
}

func (s *Scenario) buildTemplates(catalog *hardware.Catalog) ([]cluster.Group, error) {
	counts := make([]int, len(s.Fleet))
	var totalWeight float64
	weighted := false
	for i, t := range s.Fleet {
		if t.Weight > 0 {
			weighted = true
			totalWeight += t.Weight
		} else {
			counts[i] = t.Count
		}
	}
	if weighted {
		if s.Nodes <= 0 {
			return nil, fmt.Errorf("scenario: weighted fleet templates need a positive top-level nodes total")
		}
		if err := apportion(counts, s.Fleet, totalWeight, s.Nodes); err != nil {
			return nil, err
		}
	} else if s.Nodes > 0 {
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != s.Nodes {
			return nil, fmt.Errorf("scenario: template counts sum to %d but nodes says %d", sum, s.Nodes)
		}
	}

	groups := make([]cluster.Group, 0, len(s.Fleet))
	for i, t := range s.Fleet {
		nt, err := catalog.Lookup(t.Type)
		if err != nil {
			return nil, fmt.Errorf("scenario: fleet[%d]: %w", i, err)
		}
		g := cluster.FullNodes(nt, counts[i])
		if t.Cores > 0 {
			g.Cores = t.Cores
		}
		if t.FreqHz > 0 {
			g.Freq = units.Hertz(t.FreqHz)
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: fleet[%d]: %w", i, err)
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// apportion distributes the node total over weighted templates by
// largest remainder, so counts are integers, sum exactly to the total,
// and track the weights as closely as possible.
func apportion(counts []int, templates []Template, totalWeight float64, total int) error {
	type rem struct {
		idx  int
		frac float64
	}
	// Explicit counts come off the top; weights share the rest.
	pool := total
	for i, t := range templates {
		if t.Weight <= 0 {
			pool -= counts[i]
		}
	}
	if pool <= 0 {
		return fmt.Errorf("scenario: explicit counts leave no nodes for weighted templates (total %d)", total)
	}
	assigned := 0
	var rems []rem
	for i, t := range templates {
		if t.Weight <= 0 {
			continue
		}
		exact := float64(pool) * t.Weight / totalWeight
		floor := int(exact)
		counts[i] = floor
		assigned += floor
		rems = append(rems, rem{idx: i, frac: exact - float64(floor)})
	}
	// Hand out the leftover nodes to the largest fractional parts,
	// breaking ties by template order for determinism.
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; i < pool-assigned; i++ {
		counts[rems[i%len(rems)].idx]++
	}
	for i, t := range templates {
		if t.Weight > 0 && counts[i] == 0 {
			return fmt.Errorf("scenario: fleet[%d] (%s) rounds to zero nodes; raise its weight or the nodes total", i, t.Type)
		}
	}
	return nil
}
