package cluster

import (
	"fmt"

	"repro/internal/hardware"
	"repro/internal/units"
)

// Limit bounds the enumeration for one node type: up to MaxNodes nodes,
// each running 1..MaxCores active cores at any of the type's frequency
// steps (optionally restricted to Freqs).
type Limit struct {
	Type     *hardware.NodeType
	MaxNodes int
	// MaxCores limits active cores; zero means the type's full count.
	MaxCores int
	// Freqs restricts the frequency choices; nil means all steps.
	Freqs []units.Hertz
	// FixCoresAndFreq pins every node to all cores at max frequency,
	// shrinking the space to node counts only (used by the Pareto and
	// budget analyses that vary only the mix).
	FixCoresAndFreq bool
}

func (l Limit) cores() []int {
	if l.FixCoresAndFreq {
		return []int{l.Type.Cores}
	}
	max := l.MaxCores
	if max <= 0 || max > l.Type.Cores {
		max = l.Type.Cores
	}
	out := make([]int, max)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func (l Limit) freqs() []units.Hertz {
	if l.FixCoresAndFreq {
		return []units.Hertz{l.Type.FMax()}
	}
	if len(l.Freqs) > 0 {
		return l.Freqs
	}
	return l.Type.Freq.Steps
}

// OperatingPoints returns one single-node Group per distinct
// (cores, freq) pair of the type — the set of per-unit operating points
// the limit can reach, independent of node count. The memoized model
// table is keyed on exactly these, so pre-warming iterates
// OperatingPoints rather than the count-expanded choices.
func (l Limit) OperatingPoints() []Group {
	if l.MaxNodes <= 0 {
		return nil
	}
	cores := l.cores()
	freqs := l.freqs()
	out := make([]Group, 0, len(cores)*len(freqs))
	for _, c := range cores {
		for _, f := range freqs {
			out = append(out, Group{Type: l.Type, Count: 1, Cores: c, Freq: f})
		}
	}
	return out
}

// perTypeChoices returns every (count, cores, freq) choice for one type
// with count >= 1.
func (l Limit) perTypeChoices() []Group {
	if l.MaxNodes <= 0 {
		return nil
	}
	cores := l.cores()
	freqs := l.freqs()
	out := make([]Group, 0, l.MaxNodes*len(cores)*len(freqs))
	for n := 1; n <= l.MaxNodes; n++ {
		for _, c := range cores {
			for _, f := range freqs {
				out = append(out, Group{Type: l.Type, Count: n, Cores: c, Freq: f})
			}
		}
	}
	return out
}

// SpaceSize returns the number of configurations Enumerate would yield
// without materializing them: the product over every non-empty subset of
// types of their per-type choice counts. For the paper's footnote-4
// space (10 ARM nodes x 5 freqs x 4 cores, 10 AMD nodes x 3 freqs x 6
// cores) this is 36,380. A type with MaxNodes <= 0 has no choices, nor
// does a limit whose type is nil or has no cores (ValidateLimits
// rejects both), so SpaceSize is safe to call before validation.
func SpaceSize(limits []Limit) int {
	// sum over non-empty subsets of product of per-type counts
	// = prod (1 + n_i) - 1, where n_i is the per-type choice count.
	total := 1
	for _, l := range limits {
		if l.MaxNodes > 0 && l.Type != nil && l.Type.Cores > 0 {
			total *= 1 + l.MaxNodes*len(l.cores())*len(l.freqs())
		}
	}
	return total - 1
}

// Enumerate yields every configuration in the space defined by limits,
// calling visit for each. Enumeration order is deterministic. If visit
// returns false, enumeration stops early.
//
// The space follows the paper's footnote 4: every non-empty subset of
// node types, each contributing one (count, cores, frequency) choice
// shared by all its nodes.
func Enumerate(limits []Limit, visit func(Config) bool) error {
	if err := ValidateLimits(limits); err != nil {
		return err
	}
	choices := make([][]Group, len(limits))
	for i, l := range limits {
		choices[i] = l.perTypeChoices()
	}
	// Depth-first over types; at each type either skip it or pick one of
	// its choices. Reject the all-skip path.
	groups := make([]Group, 0, len(limits))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(limits) {
			if len(groups) == 0 {
				return true
			}
			cfg, err := NewConfig(groups...)
			if err != nil {
				// Choices are pre-validated; NewConfig cannot fail here.
				panic(err)
			}
			return visit(cfg)
		}
		// Skip this type.
		if !rec(i + 1) {
			return false
		}
		for _, g := range choices[i] {
			groups = append(groups, g)
			ok := rec(i + 1)
			groups = groups[:len(groups)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
	return nil
}

// ValidateLimits checks that every limit carries a valid node type of
// its own, and lists only frequencies on that type's ladder — the
// precondition Enumerate and the fast frontier engine share: every
// configuration the limits span is then one NewConfig accepts.
func ValidateLimits(limits []Limit) error {
	for i, l := range limits {
		if l.Type == nil {
			return fmt.Errorf("cluster: enumeration limit with nil type")
		}
		if err := l.Type.Validate(); err != nil {
			return err
		}
		for _, f := range l.Freqs {
			if !l.Type.HasFreq(f) {
				return fmt.Errorf("cluster: limit for %s lists unsupported frequency %v", l.Type.Name, f)
			}
		}
		for _, m := range limits[:i] {
			if m.Type.Name == l.Type.Name {
				return fmt.Errorf("cluster: two limits for node type %s", l.Type.Name)
			}
		}
	}
	return nil
}

// enumerateAllPreallocCap bounds the up-front allocation of
// EnumerateAll: SpaceSize is exact, but a caller handing over a huge
// (or overflowed) space should not trigger a giant allocation before
// the first configuration exists.
const enumerateAllPreallocCap = 1 << 20

// EnumerateAll collects the full space into a slice, sized up front
// from SpaceSize so the result never reallocates while growing. Use
// only for spaces known to be small; prefer Enumerate for streaming.
func EnumerateAll(limits []Limit) ([]Config, error) {
	if err := ValidateLimits(limits); err != nil {
		return nil, err
	}
	size := SpaceSize(limits)
	if size < 0 || size > enumerateAllPreallocCap {
		size = enumerateAllPreallocCap
	}
	out := make([]Config, 0, size)
	err := Enumerate(limits, func(c Config) bool {
		out = append(out, c)
		return true
	})
	return out, err
}
