package hardware

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/units"
)

// The catalog encodes the two node types the paper validates with
// (Table 5) plus two extension types used by the repository's additional
// experiments. Power parameters are chosen so that:
//
//   - idle power matches the paper (A9 ~1.8 W, K10 ~45 W, Section III-B);
//   - the rated peak matches the paper's budget numbers (5 W / 60 W,
//     footnote 3);
//   - the per-component split is physically plausible (CPU active power
//     dominates the dynamic range; stall power is a fraction of active;
//     memory and NIC draws match DDR2/DDR3 and Fast-Ethernet/GigE parts).
//
// The per-workload busy powers that drive the proportionality metrics come
// from the workload calibration (internal/workload), not from these peaks.

// NewA9 returns the ARM Cortex-A9 wimpy node of Table 5.
func NewA9() *NodeType {
	return &NodeType{
		Name:  "A9",
		Model: "ARM Cortex-A9",
		ISA:   ISAARMv7,
		Cores: 4,
		Freq: DVFS{
			// Table 5 gives 0.2-1.4 GHz; footnote 4 counts 5 steps.
			Steps:           []units.Hertz{0.2 * units.GHz, 0.6 * units.GHz, 0.8 * units.GHz, 1.2 * units.GHz, 1.4 * units.GHz},
			DynamicExponent: 2.2,
		},
		MemBandwidth: units.BytesPerSecond(1.6e9), // LP-DDR2 single channel
		NICBandwidth: units.BytesPerSecond(100e6 / 8),
		Power: PowerParams{
			CPUActPerCore:   0.55,
			CPUStallPerCore: 0.22,
			Mem:             0.45,
			Net:             0.15,
			Idle:            1.8,
		},
		NominalPeak: 5,
		MemPerNode:  1 * units.GB,
	}
}

// NewK10 returns the AMD Opteron K10 brawny node of Table 5.
func NewK10() *NodeType {
	return &NodeType{
		Name:  "K10",
		Model: "AMD Opteron K10",
		ISA:   ISAx86,
		Cores: 6,
		Freq: DVFS{
			// Table 5 gives 0.8-2.1 GHz; footnote 4 counts 3 steps.
			Steps:           []units.Hertz{0.8 * units.GHz, 1.5 * units.GHz, 2.1 * units.GHz},
			DynamicExponent: 2.2,
		},
		MemBandwidth: units.BytesPerSecond(12.8e9), // DDR3-1600 single channel
		NICBandwidth: units.BytesPerSecond(1e9 / 8),
		Power: PowerParams{
			CPUActPerCore:   5.5,
			CPUStallPerCore: 2.6,
			Mem:             4.0,
			Net:             1.2,
			Idle:            45,
		},
		NominalPeak: 60,
		MemPerNode:  8 * units.GB,
	}
}

// NewA15 returns an ARM Cortex-A15 node, an extension type covering the
// middle of the wimpy-to-brawny spectrum (the paper names Cortex-A15 as a
// system its execution model covers).
func NewA15() *NodeType {
	return &NodeType{
		Name:  "A15",
		Model: "ARM Cortex-A15",
		ISA:   ISAARMv7,
		Cores: 4,
		Freq: DVFS{
			Steps:           []units.Hertz{0.6 * units.GHz, 1.0 * units.GHz, 1.4 * units.GHz, 1.8 * units.GHz, 2.0 * units.GHz},
			DynamicExponent: 2.4,
		},
		MemBandwidth: units.BytesPerSecond(6.4e9),
		NICBandwidth: units.BytesPerSecond(1e9 / 8),
		Power: PowerParams{
			CPUActPerCore:   1.9,
			CPUStallPerCore: 0.8,
			Mem:             1.1,
			Net:             0.9,
			Idle:            4.2,
		},
		NominalPeak: 14,
		MemPerNode:  2 * units.GB,
	}
}

// NewXeonE5 returns an Intel Xeon E5 class node, an extension brawny type.
func NewXeonE5() *NodeType {
	return &NodeType{
		Name:  "XeonE5",
		Model: "Intel Xeon E5",
		ISA:   ISAx86,
		Cores: 8,
		Freq: DVFS{
			Steps:           []units.Hertz{1.2 * units.GHz, 1.8 * units.GHz, 2.4 * units.GHz, 2.7 * units.GHz},
			DynamicExponent: 2.6,
		},
		MemBandwidth: units.BytesPerSecond(25.6e9),
		NICBandwidth: units.BytesPerSecond(10e9 / 8),
		Power: PowerParams{
			CPUActPerCore:   8.5,
			CPUStallPerCore: 3.9,
			Mem:             9.0,
			Net:             4.5,
			Idle:            62,
		},
		NominalPeak: 150,
		MemPerNode:  64 * units.GB,
	}
}

// Catalog is a registry of node types keyed by name.
type Catalog struct {
	mu    sync.RWMutex
	types map[string]*NodeType
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{types: make(map[string]*NodeType)}
}

// DefaultCatalog returns a catalog preloaded with the paper's A9 and K10
// nodes and the two extension types.
func DefaultCatalog() *Catalog {
	c := NewCatalog()
	for _, n := range []*NodeType{NewA9(), NewK10(), NewA15(), NewXeonE5()} {
		if err := c.Register(n); err != nil {
			// The built-in nodes are statically valid; a failure here is a
			// programming error in the catalog itself.
			panic(err)
		}
	}
	return c
}

// Register adds a node type. It fails on invalid descriptions or
// duplicate names.
func (c *Catalog) Register(n *NodeType) error {
	if err := n.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.types[n.Name]; ok {
		return fmt.Errorf("hardware: node type %q already registered", n.Name)
	}
	c.types[n.Name] = n
	return nil
}

// Lookup returns the node type with the given name.
func (c *Catalog) Lookup(name string) (*NodeType, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.types[name]
	if !ok {
		return nil, fmt.Errorf("hardware: unknown node type %q", name)
	}
	return n, nil
}

// Names returns the registered type names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.types))
	for name := range c.types {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
