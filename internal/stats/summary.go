package stats

import (
	"fmt"
	"math"
)

// Summary accumulates streaming moments of a sequence using Welford's
// algorithm, which is numerically stable for long simulation traces.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add accumulates v into the summary.
func (s *Summary) Add(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// N returns the number of accumulated values.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for fewer than 2 values).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}
