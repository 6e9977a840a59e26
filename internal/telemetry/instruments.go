package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the current value.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

// Max raises the gauge to v if v exceeds the current value — a
// high-watermark gauge (e.g. peak event-queue depth).
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds: bucket i counts values v <= bounds[i], with one extra
// overflow bucket above the last bound. It also tracks count, sum, min
// and max, so quantile estimates can clamp the open-ended end buckets
// to the observed range. All methods are lock-free, safe for concurrent
// use, and no-ops on a nil receiver.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until first observation
	maxBits atomic.Uint64 // -Inf until first observation
	// exemplars holds the latest labelled observation per bucket (see
	// ObserveExemplar); cells are nil until a labelled observation lands.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar is one labelled observation attached to a histogram bucket:
// the observed value plus the request ID that produced it, exported on
// the OpenMetrics exposition so a latency bucket links back to a
// concrete request's access-log line.
type Exemplar struct {
	// RequestID is the exemplar label (exported as request_id).
	RequestID string `json:"request_id"`
	// Value is the observed value.
	Value float64 `json:"value"`
	// Bucket is the index of the bucket the observation landed in (set
	// on snapshot export; len(Bounds) means the overflow bucket).
	Bucket int `json:"bucket"`
}

// NewHistogram builds a standalone histogram from ascending bucket
// upper bounds. Empty bounds give a single all-in-one bucket (still
// useful for count/sum/min/max). Most callers use Registry.Histogram.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// ExponentialBuckets returns n ascending bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe counts v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First index whose bound is >= v; len(bounds) is the overflow cell.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		cur := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveExemplar counts v like Observe and additionally stores
// (requestID, v) as the containing bucket's exemplar, replacing the
// previous one — last-write-wins is the conventional exemplar policy,
// and one atomic pointer swap keeps the labelled path nearly as cheap
// as the plain one. An empty requestID degrades to Observe.
func (h *Histogram) ObserveExemplar(v float64, requestID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if requestID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{RequestID: requestID, Value: v, Bucket: i})
}

// Exemplars returns the latest labelled observation per bucket, sparse:
// only buckets that ever received one appear, in bucket order.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			ex := *e
			ex.Bucket = i
			out = append(out, ex)
		}
	}
	return out
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation within the containing bucket; the open-ended first and
// last buckets are clamped to the observed min/max. The estimate is
// exact to within one bucket width. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := h.Min()
			if i > 0 {
				lo = math.Max(lo, h.bounds[i-1])
			}
			hi := h.Max()
			if i < len(h.bounds) {
				hi = math.Min(hi, h.bounds[i])
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.Max()
}

// Bounds returns the bucket upper bounds (nil on a nil histogram).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns the per-bucket counts, the last entry being the
// overflow bucket above the final bound.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
