// Package cluster represents heterogeneous system configurations: which
// node types participate, with how many nodes, how many active cores per
// node and at which core frequency — the tuple space of Section II-A of
// the paper — together with configuration-space enumeration and
// peak-power-budget accounting.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hardware"
	"repro/internal/units"
)

// Group is a homogeneous slice of a configuration: n nodes of one type,
// all running c active cores at frequency f. The paper's enumeration
// (footnote 4) makes the same choice for every node of a type, which is
// what Group encodes.
type Group struct {
	// Type is the node type.
	Type *hardware.NodeType
	// Count is the number of nodes (n_i).
	Count int
	// Cores is the number of active cores per node (c_i <= c_max).
	Cores int
	// Freq is the operating core frequency (f_i).
	Freq units.Hertz
}

// Validate checks the group against its node type's limits.
func (g Group) Validate() error {
	if g.Type == nil {
		return errors.New("cluster: group has nil node type")
	}
	if g.Count <= 0 {
		return fmt.Errorf("cluster: group of %s has count %d", g.Type.Name, g.Count)
	}
	if g.Cores <= 0 || g.Cores > g.Type.Cores {
		return fmt.Errorf("cluster: group of %s has %d cores, type supports 1-%d",
			g.Type.Name, g.Cores, g.Type.Cores)
	}
	if !g.Type.HasFreq(g.Freq) {
		return fmt.Errorf("cluster: group of %s uses unsupported frequency %v", g.Type.Name, g.Freq)
	}
	return nil
}

// FullNodes returns a group of n nodes with all cores at max frequency.
func FullNodes(t *hardware.NodeType, n int) Group {
	return Group{Type: t, Count: n, Cores: t.Cores, Freq: t.FMax()}
}

// Config is a heterogeneous cluster configuration: one group per
// participating node type.
type Config struct {
	Groups []Group
}

// NewConfig builds a configuration from groups, dropping empty ones and
// validating the rest. Group order is normalized by node-type name so
// configurations compare canonically.
func NewConfig(groups ...Group) (Config, error) {
	kept := make([]Group, 0, len(groups))
	seen := make(map[string]bool, len(groups))
	for _, g := range groups {
		if g.Count == 0 {
			continue
		}
		if err := g.Validate(); err != nil {
			return Config{}, err
		}
		if seen[g.Type.Name] {
			return Config{}, fmt.Errorf("cluster: duplicate group for node type %s", g.Type.Name)
		}
		seen[g.Type.Name] = true
		kept = append(kept, g)
	}
	if len(kept) == 0 {
		return Config{}, errors.New("cluster: configuration has no nodes")
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Type.Name < kept[j].Type.Name })
	return Config{Groups: kept}, nil
}

// MustConfig is NewConfig that panics on error, for statically valid
// configurations in tests and examples.
func MustConfig(groups ...Group) Config {
	c, err := NewConfig(groups...)
	if err != nil {
		panic(err)
	}
	return c
}

// Nodes returns the total node count.
func (c Config) Nodes() int {
	n := 0
	for _, g := range c.Groups {
		n += g.Count
	}
	return n
}

// Degree returns the degree of inter-node heterogeneity (number of
// distinct node types, d in the paper).
func (c Config) Degree() int { return len(c.Groups) }

// Count returns the number of nodes of the named type (0 if absent).
func (c Config) Count(typeName string) int {
	for _, g := range c.Groups {
		if g.Type.Name == typeName {
			return g.Count
		}
	}
	return 0
}

// IdlePower is the configuration's total idle power, excluding switches
// (see hardware.SwitchModel for why switches are budget-only).
func (c Config) IdlePower() units.Watts {
	var p units.Watts
	for _, g := range c.Groups {
		p += units.Watts(float64(g.Type.Power.Idle) * float64(g.Count))
	}
	return p
}

// NominalPeak is the rated peak power for budget accounting, excluding
// switches.
func (c Config) NominalPeak() units.Watts {
	var p units.Watts
	for _, g := range c.Groups {
		p += units.Watts(float64(g.Type.NominalPeak) * float64(g.Count))
	}
	return p
}

// Key returns a canonical string identity usable as a map key.
func (c Config) Key() string {
	parts := make([]string, len(c.Groups))
	for i, g := range c.Groups {
		parts[i] = fmt.Sprintf("%s:%d:%d:%g", g.Type.Name, g.Count, g.Cores, float64(g.Freq))
	}
	return strings.Join(parts, "|")
}

// String renders the configuration in the paper's "32 A9: 12 K10" style,
// annotating cores/frequency only when they deviate from the maximum.
func (c Config) String() string {
	var buf [64]byte
	b := buf[:0]
	for i, g := range c.Groups {
		if i > 0 {
			b = append(b, ": "...)
		}
		b = strconv.AppendInt(b, int64(g.Count), 10)
		b = append(append(b, ' '), g.Type.Name...)
		if g.Cores != g.Type.Cores || g.Freq != g.Type.FMax() {
			b = strconv.AppendInt(append(b, '('), int64(g.Cores), 10)
			b = append(g.Freq.Append(append(b, "c@"...)), ')')
		}
	}
	return string(b)
}

// Validate checks every group.
func (c Config) Validate() error {
	if len(c.Groups) == 0 {
		return errors.New("cluster: configuration has no groups")
	}
	for _, g := range c.Groups {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}
