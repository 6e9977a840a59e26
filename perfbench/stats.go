package main

import (
	"math"
	"math/rand/v2"
	"slices"
)

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// rule.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[max(1, min(rank(p, len(sorted)), len(sorted)))-1]
}

// rank is the 1-based nearest rank of percentile p in n samples. The
// slack keeps float round-off (99.9/100*10000 = 9990.000000000002) from
// pushing an exact rank up by one.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailLadder lists the percentiles the tail report may use, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailLadder that
// leaves at least ten samples beyond its nearest rank in n samples, and
// false when even the median does not.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// tail is the wall.tail_ms report: the value at the highest percentile
// the sample supports, with that percentile and the sample count.
type tail struct {
	Percentile float64 `json:"percentile"`
	ValueMS    float64 `json:"value_ms"`
	Samples    int     `json:"samples"`
}

func tailOf(msSamples []float64) *tail {
	p, ok := tailPercentile(len(msSamples))
	if !ok {
		return nil
	}
	s := slices.Clone(msSamples)
	slices.Sort(s)
	return &tail{Percentile: p, ValueMS: nearestRank(s, p), Samples: len(s)}
}

// latencyStore keeps per-op latencies in a buffer allocated and touched
// before the timed phase, so the benchmark's own memory does not grow
// with the program's throughput (which would leak into rss_peak_mb).
// Past its capacity it keeps a uniform reservoir sample.
type latencyStore struct {
	ms   []float64
	seen int
	rng  *rand.Rand
}

func newLatencyStore(capacity int, seed uint64) *latencyStore {
	buf := make([]float64, capacity)
	for i := range buf {
		buf[i] = math.NaN() // touch every page now
	}
	return &latencyStore{ms: buf[:0], rng: rand.New(rand.NewPCG(seed, 0x1a7e))}
}

func (s *latencyStore) add(ms float64) {
	s.seen++
	if len(s.ms) < cap(s.ms) {
		s.ms = append(s.ms, ms)
		return
	}
	if j := s.rng.IntN(s.seen); j < len(s.ms) {
		s.ms[j] = ms
	}
}
