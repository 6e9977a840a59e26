package queueing

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// queueingInstruments caches the registry lookups of the distribution
// kernel, so the hot CDF/percentile paths touch only (possibly nil)
// instrument pointers — the same pattern as pareto.sweepInstruments,
// lifted to package level. The cache is keyed by the registry pointer it
// was resolved against: telemetry.SetGlobal swaps are detected by a
// single atomic load plus pointer compare per call.
type queueingInstruments struct {
	reg      *telemetry.Registry
	cdfCalls *telemetry.Counter
	searches *telemetry.Counter
	tracer   *telemetry.Tracer
}

var instrumentsCache atomic.Pointer[queueingInstruments]

// instruments returns the cached instrument set for the current global
// registry, rebuilding it when the registry changes (including to nil,
// where every instrument is a nil no-op).
func instruments() *queueingInstruments {
	reg := telemetry.Global()
	if ins := instrumentsCache.Load(); ins != nil && ins.reg == reg {
		return ins
	}
	ins := &queueingInstruments{
		reg:      reg,
		cdfCalls: reg.Counter("queueing.wait_cdf_calls"),
		searches: reg.Counter("queueing.percentile_searches"),
		tracer:   reg.Tracer(),
	}
	instrumentsCache.Store(ins)
	return ins
}
