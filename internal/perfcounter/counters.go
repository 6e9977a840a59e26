// Package perfcounter provides the simulated hardware event counters the
// characterization pipeline reads, standing in for the perf(1) counters
// the paper collected on physical nodes (Section II-D, Figure 4).
package perfcounter

import "fmt"

// Counters accumulates per-node hardware events over a simulated run.
type Counters struct {
	// WorkCycles counts cycles retiring instructions (per core, summed).
	WorkCycles float64
	// StallCycles counts cycles stalled on memory (per core, summed).
	StallCycles float64
	// MemCycles counts memory-controller busy cycles.
	MemCycles float64
	// CacheMisses counts last-level cache misses.
	CacheMisses float64
	// IOBytes counts bytes moved by the NIC.
	IOBytes float64
	// IORequests counts discrete network requests.
	IORequests float64
	// Instructions counts retired instructions.
	Instructions float64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.WorkCycles += o.WorkCycles
	c.StallCycles += o.StallCycles
	c.MemCycles += o.MemCycles
	c.CacheMisses += o.CacheMisses
	c.IOBytes += o.IOBytes
	c.IORequests += o.IORequests
	c.Instructions += o.Instructions
}

func (c Counters) String() string {
	return fmt.Sprintf("work=%.3g stall=%.3g mem=%.3g misses=%.3g io=%.3gB/%.3greq instr=%.3g",
		c.WorkCycles, c.StallCycles, c.MemCycles, c.CacheMisses, c.IOBytes, c.IORequests, c.Instructions)
}
