package queueing

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// M/D/1 is scale free in the service time: at fixed utilization rho the
// waiting time satisfies W(lambda, D) = D * W(rho, 1) in distribution.
// Every percentile query therefore reduces to the normalized queue
// MD1{Lambda: rho, D: 1}, and all configurations swept at the same
// utilization — the common case in the paper's U x percentile grids,
// where dozens of mixes are evaluated on one utilization axis — share a
// single search through the process-wide memo below.
//
// Keys quantize rho to the nearest multiple of 2^-rhoQuantBits. Two
// utilizations that differ only in float64 round-off (0.7 given directly
// versus recovered as lambda*D) collapse onto one entry; the error this
// introduces is bounded by the percentile's sensitivity to rho,
// |dW/drho| <= ~2*W/( (1-rho)*(...)), so the relative perturbation is at
// most about 2^-40/(1-rho) — under 1e-10 even at rho = 0.99, two orders
// inside the kernel's 1e-9 accuracy budget (see DESIGN.md §9).

// rhoQuantBits is the rho quantization: 2^-40 ≈ 9.1e-13.
const rhoQuantBits = 40

// pctCacheMaxEntries bounds the memo; past it the map is dropped and
// refilled (sweeps touch a few thousand (rho, p) pairs at most, so the
// bound exists only to keep pathological callers from growing it
// without limit).
const pctCacheMaxEntries = 1 << 15

// pctShardCount lock-stripes the memo. One RWMutex serializes every
// warm epserve percentile request through a single cache line; under
// batched serving load (hundreds of concurrent items, each a map read)
// that lock is the scaling limit long before the 130 ns kernel is.
// Sixteen shards keyed by the quantized-rho key spread both the lock
// and the map across cores. Must be a power of two.
const pctShardCount = 16

// pctShardMaxEntries is the per-shard overflow bound; the generation
// total stays bounded by pctCacheMaxEntries even if every key landed in
// one shard's stripe.
const pctShardMaxEntries = pctCacheMaxEntries / pctShardCount

// QuantizedRho exposes the cache's rho quantization to callers that
// build their own coalescing keys above the kernel: epserve's
// singleflight layer keys scalar and batched percentile requests on
// the same quantized utilization, so two callers that differ only in
// float64 round-off coalesce onto one computation, exactly as their
// cache entries collapse onto one memo cell here.
func QuantizedRho(rho float64) float64 { return quantizeRho(rho) }

// quantizeRho rounds rho onto the cache lattice, falling back to the
// exact value at the extremes where rounding would cross 0 or 1.
func quantizeRho(rho float64) float64 {
	const scale = 1 << rhoQuantBits
	q := math.Round(rho*scale) / scale
	if q <= 0 || q >= 1 {
		return rho
	}
	return q
}

// Kernel-identity tags for cache keys. The M/D/1 tag is the zero value,
// so the original single-kernel entries keep their exact keys (and
// shard placement). Distinct curves of one kernel family — the M/G/1
// wait and sojourn mixtures — get distinct tags too, since they differ
// at the same (rho, target, scv).
const (
	pctKindMD1 uint8 = iota
	pctKindMG1Wait
	pctKindMG1Resp
)

type pctKey struct {
	rho    float64 // quantized
	target uint64  // math.Float64bits(p/100)
	kind   uint8   // kernel identity (pctKind*)
	shape  uint64  // kernel shape bits (e.g. math.Float64bits(scv)); 0 for M/D/1
}

// pctEntry is a singleflight cell: the first goroutine to claim the key
// computes inside the Once while latecomers block on it and then read
// the settled value.
type pctEntry struct {
	once sync.Once
	w    float64
	err  error
}

// pctShard is one lock stripe of a generation: a plain Go map under an
// RWMutex rather than a sync.Map — the hit path (the overwhelmingly
// common case under serving load; every warm epserve percentile request
// lands here) is then a read-lock plus a map lookup with zero
// allocations, where sync.Map.Load boxes the 16-byte key into an
// interface on every call. The 0-alloc hit path is asserted by a
// regression test, as epserve's request-scoped observability depends on
// the kernel staying allocation-free when no request attribution is
// attached.
type pctShard struct {
	mu   sync.RWMutex
	m    map[pctKey]*pctEntry
	size atomic.Int64
	// pad the shard out to its own cache lines so neighboring shards'
	// mutexes do not false-share under cross-shard batch fan-out.
	_ [24]byte
}

// pctGeneration is one lifetime of the memo: pctShardCount lock-striped
// shards, each pairing its map with its own entry counter. Keeping the
// counters inside the generation (rather than beside the map pointer)
// makes the size accounting race-free across resets: a goroutine that
// loaded an old generation increments that generation's counter, never
// the fresh one, so a swap can neither leak uncounted entries into the
// new map nor inherit stale counts that would trigger spurious resets —
// both observable as cache thrash (miss-counter inflation) under
// concurrent serving load.
type pctGeneration struct {
	shards [pctShardCount]pctShard
}

// shard maps key onto its stripe. The quantized rho and the target both
// carry their entropy in the float64 mantissa bits; a Fibonacci mix of
// the two spreads consecutive sweep grids (u = 0.50, 0.51, ...) across
// stripes instead of clustering them.
func (g *pctGeneration) shard(key pctKey) *pctShard {
	h := math.Float64bits(key.rho)*0x9E3779B97F4A7C15 ^ key.target*0xD6E8FEB86659FD93
	// Kernel identity mixes in multiplicatively; the M/D/1 tag (0, 0)
	// contributes nothing, preserving the original shard placement.
	h ^= uint64(key.kind)*0xBF58476D1CE4E5B9 ^ key.shape*0x94D049BB133111EB
	return &g.shards[(h>>56)&(pctShardCount-1)]
}

// size returns the generation's total entry count across shards.
func (g *pctGeneration) size() int64 {
	var n int64
	for i := range g.shards {
		n += g.shards[i].size.Load()
	}
	return n
}

// lookup returns the entry for key, creating (and counting) it on miss.
// loaded reports whether the entry already existed.
func (s *pctShard) lookup(key pctKey) (e *pctEntry, loaded bool) {
	s.mu.RLock()
	e = s.m[key]
	s.mu.RUnlock()
	if e != nil {
		return e, true
	}
	s.mu.Lock()
	if e = s.m[key]; e != nil {
		s.mu.Unlock()
		return e, true
	}
	if s.m == nil {
		s.m = make(map[pctKey]*pctEntry)
	}
	e = &pctEntry{}
	s.m[key] = e
	s.mu.Unlock()
	return e, false
}

var pctCache atomic.Pointer[pctGeneration]

func init() { pctCache.Store(new(pctGeneration)) }

// resetPercentileCache drops every memoized percentile by installing a
// fresh generation. Used when the map outgrows pctCacheMaxEntries, and
// by tests that need a cold cache. In-flight lookups against the old
// generation complete against it and are then unreachable.
func resetPercentileCache() {
	pctCache.Store(new(pctGeneration))
}

// normState carries warm search state across the queries of one batch:
// the shared normalized-queue evaluator (whose e^{-rho} step factor is
// computed once per precision) and the best known lower bracket. With
// targets visited in ascending order, each solved percentile becomes
// the lower bracket of the next.
type normState struct {
	ev  *cdfEvaluator
	lo  float64 // known wait with cdf(lo) = flo
	flo float64
}

// percentileCell is the one entry point of the memo: it quantizes rho,
// keys the cell on (rho, target) plus the kernel identity, finds or
// creates it in its shard, counts the hit or miss (process-wide, and
// into rc when a request scope is attached: epserve's access log reports
// each request's cache behavior from it), and drops the generation when
// the shard overflows. The caller solves inside the returned cell's
// Once, from the quantized rho it also returns, so concurrent misses on
// one key run one solve.
func percentileCell(kind uint8, shapeBits uint64, rho, target float64, rc *telemetry.RequestContext) (*pctEntry, float64) {
	ins := instruments()
	rhoQ := quantizeRho(rho)
	key := pctKey{rho: rhoQ, target: math.Float64bits(target), kind: kind, shape: shapeBits}
	sh := pctCache.Load().shard(key)
	e, loaded := sh.lookup(key)
	if loaded {
		ins.cacheHits.Inc()
		rc.Add(telemetry.AttrCacheHits, 1)
	} else {
		ins.cacheMisses.Inc()
		rc.Add(telemetry.AttrCacheMisses, 1)
		if sh.size.Add(1) > pctShardMaxEntries {
			resetPercentileCache()
		}
	}
	return e, rhoQ
}

// cachedNormalizedPercentile returns the normalized wait percentile
// w(rho, target) for the queue MD1{Lambda: rho, D: 1}, memoized across
// the process under the zero kernel tag. st may be nil (single query)
// or shared batch state.
func cachedNormalizedPercentile(rho, target float64, st *normState, rc *telemetry.RequestContext) (float64, error) {
	e, rhoQ := percentileCell(pctKindMD1, 0, rho, target, rc)
	e.once.Do(func() {
		e.w, e.err = solveNormalizedPercentile(rhoQ, target, st)
	})
	if e.err == nil && st != nil && e.w > st.lo {
		// Warm the batch bracket even on cache hits: cdf(w) = target.
		st.lo, st.flo = e.w, target
	}
	return e.w, e.err
}

// kernelSolver solves a normalized percentile for a kernel identified
// by its shape value (e.g. the M/G/1 SCV). Implementations must be
// package-level functions: a per-call closure would cost the warm hit
// path its zero-allocation guarantee.
type kernelSolver func(rho, shape, target float64) (float64, error)

// cachedKernelPercentile is the memo for non-M/D/1 kernels: kind and
// shapeBits extend the key with the kernel identity (for M/G/1, the
// curve tag plus the raw SCV bits), so two kernels at the same (rho,
// target) can never share a cell — the cross-kernel bleed test in
// cache_test.go pins this. solve receives the quantized rho the cell is
// keyed on plus the shape value.
func cachedKernelPercentile(kind uint8, shapeBits uint64, shape, rho, target float64, rc *telemetry.RequestContext, solve kernelSolver) (float64, error) {
	e, rhoQ := percentileCell(kind, shapeBits, rho, target, rc)
	e.once.Do(func() {
		e.w, e.err = solve(rhoQ, shape, target)
	})
	return e.w, e.err
}

// solveNormalizedPercentile brackets and solves F(w) = target on the
// normalized queue. st, when non-nil, seeds the lower bracket and
// supplies the shared evaluator.
func solveNormalizedPercentile(rho, target float64, st *normState) (float64, error) {
	var ev *cdfEvaluator
	lo, flo := 0.0, 1-rho
	if st != nil {
		if st.ev == nil {
			st.ev = &cdfEvaluator{q: MD1{Lambda: rho, D: 1}, rho: rho}
		}
		ev = st.ev
		if st.lo > 0 && st.flo <= target {
			lo, flo = st.lo, st.flo
		}
	} else {
		ev = &cdfEvaluator{q: MD1{Lambda: rho, D: 1}, rho: rho}
	}

	// Bracket: grow the upper bound geometrically from the mean wait,
	// promoting each failed bound to the lower bracket.
	hi := rho / (2 * (1 - rho)) // normalized mean wait
	if hi <= lo {
		hi = lo + 1
	}
	fhi := ev.cdf(hi)
	for i := 0; fhi < target; i++ {
		lo, flo = hi, fhi
		hi *= 2
		fhi = ev.cdf(hi)
		if i > 60 {
			return 0, errors.New("queueing: percentile bracket failed to converge")
		}
	}
	return solveCDF(ev.cdf, target, lo, flo, hi, fhi), nil
}

// solveCDF finds w with F(w) = target inside a bracket by regula falsi
// with the Illinois modification: the next probe interpolates the
// monotone CDF linearly between the bracket ends (far faster than
// bisection on the smooth, near-exponential tail), and halving the
// retained end's residual whenever the same side survives twice keeps
// the superlinear convergence guarantee bisection would otherwise be
// needed for. cdf may be any monotone CDF — the M/D/1 evaluator, the
// M/G/1 mixtures, or the M/M/k sojourn.
func solveCDF(cdf func(float64) float64, target, lo, flo, hi, fhi float64) float64 {
	glo, ghi := flo-target, fhi-target
	side := 0
	for i := 0; i < 200 && hi-lo > 1e-12*math.Max(1, hi); i++ {
		var mid float64
		if ghi != glo {
			mid = lo - glo*(hi-lo)/(ghi-glo)
		}
		if !(mid > lo && mid < hi) {
			mid = lo + 0.5*(hi-lo)
		}
		g := cdf(mid) - target
		if g < 0 {
			lo, glo = mid, g
			if side == -1 {
				ghi *= 0.5
			}
			side = -1
		} else {
			hi, ghi = mid, g
			if side == 1 {
				glo *= 0.5
			}
			side = 1
		}
	}
	return lo + 0.5*(hi-lo)
}
