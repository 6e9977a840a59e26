// Package units provides physical quantity types used throughout the
// time-energy model: power, energy, time, frequency, data sizes and rates.
//
// The types are thin float64 wrappers. They exist to make the model code
// self-documenting and to catch unit mistakes at compile time (e.g. adding
// watts to joules), not to implement a general dimensional-analysis system.
// Conversions between related quantities are provided as methods (for
// example Power.Over(Seconds) yields Energy).
package units

import (
	"math"
	"strconv"
)

// Watts is electrical power in watts.
type Watts float64

// Joules is energy in joules (watt-seconds).
type Joules float64

// Seconds is a duration in seconds. The model uses its own duration type
// rather than time.Duration because modeled times routinely exceed the
// nanosecond precision and 290-year range tradeoffs of time.Duration, and
// because all model arithmetic is floating point.
type Seconds float64

// Hertz is frequency in cycles per second.
type Hertz float64

// Cycles is a count of processor clock cycles.
type Cycles float64

// Bytes is a data size in bytes.
type Bytes float64

// BytesPerSecond is a data transfer rate.
type BytesPerSecond float64

// PerSecond is a generic rate (events per second), used for arrival rates
// and throughputs.
type PerSecond float64

// Common scale factors.
const (
	GHz         Hertz   = 1e9
	GB          Bytes   = 1e9
	Microsecond Seconds = 1e-6
)

// Energy returns the energy consumed by drawing power p for duration d.
func (p Watts) Energy(d Seconds) Joules { return Joules(float64(p) * float64(d)) }

// Over returns the average power of energy e spent over duration d.
// It returns 0 for a non-positive duration.
func (e Joules) Over(d Seconds) Watts {
	if d <= 0 {
		return 0
	}
	return Watts(float64(e) / float64(d))
}

// Time returns how long c cycles take at frequency f.
// It returns +Inf seconds when f is zero, matching the model convention
// that a 0 Hz resource can do no work.
func (c Cycles) Time(f Hertz) Seconds {
	if f <= 0 {
		if c == 0 {
			return 0
		}
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(c) / float64(f))
}

// TransferTime returns how long it takes to move b bytes at rate r.
func (b Bytes) TransferTime(r BytesPerSecond) Seconds {
	if r <= 0 {
		if b == 0 {
			return 0
		}
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(r))
}

// IsFinite reports whether s is neither NaN nor infinite.
func (s Seconds) IsFinite() bool {
	return !math.IsNaN(float64(s)) && !math.IsInf(float64(s), 0)
}

func (p Watts) String() string  { return formatScaled(float64(p), "W") }
func (e Joules) String() string { return formatScaled(float64(e), "J") }
func (f Hertz) String() string  { return formatScaled(float64(f), "Hz") }
func (b Bytes) String() string  { return formatScaled(float64(b), "B") }
func (r PerSecond) String() string {
	return formatScaled(float64(r), "/s")
}

func (s Seconds) String() string {
	v := float64(s)
	abs := math.Abs(v)
	prec, suffix := 4, "h"
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		v, prec, suffix = v*1e9, 3, "ns"
	case abs < 1e-3:
		v, prec, suffix = v*1e6, 3, "us"
	case abs < 1:
		v, prec, suffix = v*1e3, 3, "ms"
	case abs < 3600:
		suffix = "s"
	default:
		v /= 3600
	}
	var buf [32]byte
	return string(append(strconv.AppendFloat(buf[:0], v, 'g', prec, 64), suffix...))
}

// Append appends f.String() to dst and returns the extended slice.
func (f Hertz) Append(dst []byte) []byte { return appendScaled(dst, float64(f), "Hz") }

// formatScaled renders v with an SI prefix chosen from its magnitude.
func formatScaled(v float64, unit string) string {
	var buf [32]byte
	return string(appendScaled(buf[:0], v, unit))
}

// appendScaled appends v with an SI prefix chosen from its magnitude and
// four significant digits, byte for byte what fmt's %.4g prints.
func appendScaled(dst []byte, v float64, unit string) []byte {
	abs := math.Abs(v)
	prefix := ""
	switch {
	case abs == 0:
		return append(append(dst, '0'), unit...)
	case abs >= 1e9:
		v, prefix = v/1e9, "G"
	case abs >= 1e6:
		v, prefix = v/1e6, "M"
	case abs >= 1e3:
		v, prefix = v/1e3, "k"
	case abs >= 1:
	case abs >= 1e-3:
		v, prefix = v*1e3, "m"
	case abs >= 1e-6:
		v, prefix = v*1e6, "u"
	default:
		v, prefix = v*1e9, "n"
	}
	dst = strconv.AppendFloat(dst, v, 'g', 4, 64)
	return append(append(dst, prefix...), unit...)
}
