package units

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestPowerEnergyRoundTrip(t *testing.T) {
	f := func(pRaw, dRaw uint16) bool {
		p := Watts(float64(pRaw)/7 + 0.1)
		d := Seconds(float64(dRaw)/13 + 0.1)
		e := p.Energy(d)
		back := e.Over(d)
		return math.Abs(float64(back-p)) < 1e-9*math.Abs(float64(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyOverZeroDuration(t *testing.T) {
	if got := Joules(100).Over(0); got != 0 {
		t.Errorf("Over(0) = %v, want 0", got)
	}
	if got := Joules(100).Over(-1); got != 0 {
		t.Errorf("Over(-1) = %v, want 0", got)
	}
}

func TestCyclesTime(t *testing.T) {
	if got := Cycles(2e9).Time(1 * GHz); math.Abs(float64(got)-2) > 1e-12 {
		t.Errorf("2e9 cycles at 1GHz = %v, want 2s", got)
	}
	if got := Cycles(100).Time(0); !math.IsInf(float64(got), 1) {
		t.Errorf("cycles at 0Hz = %v, want +Inf", got)
	}
	if got := Cycles(0).Time(0); got != 0 {
		t.Errorf("0 cycles at 0Hz = %v, want 0", got)
	}
}

func TestTransferTime(t *testing.T) {
	if got := Bytes(1e6).TransferTime(1e6); math.Abs(float64(got)-1) > 1e-12 {
		t.Errorf("1MB at 1MB/s = %v, want 1s", got)
	}
	if got := Bytes(1).TransferTime(0); !math.IsInf(float64(got), 1) {
		t.Errorf("transfer at 0 B/s = %v, want +Inf", got)
	}
	if got := Bytes(0).TransferTime(0); got != 0 {
		t.Errorf("0 bytes at 0 B/s = %v, want 0", got)
	}
}

func TestRateInterval(t *testing.T) {
	if got := PerSecond(4).Interval(); math.Abs(float64(got)-0.25) > 1e-12 {
		t.Errorf("interval of 4/s = %v, want 0.25s", got)
	}
	if got := PerSecond(0).Interval(); !math.IsInf(float64(got), 1) {
		t.Errorf("interval of 0/s = %v, want +Inf", got)
	}
}

func TestMaxSeconds(t *testing.T) {
	if got := MaxSeconds(1, 3, 2); got != 3 {
		t.Errorf("MaxSeconds = %v, want 3", got)
	}
	if got := MaxSeconds(5); got != 5 {
		t.Errorf("MaxSeconds single = %v, want 5", got)
	}
	if got := MaxSeconds(-1, -3); got != -1 {
		t.Errorf("MaxSeconds negatives = %v, want -1", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !Seconds(1.5).IsFinite() {
		t.Error("1.5s should be finite")
	}
	if Seconds(math.Inf(1)).IsFinite() {
		t.Error("+Inf should not be finite")
	}
	if Seconds(math.NaN()).IsFinite() {
		t.Error("NaN should not be finite")
	}
}

func TestStringScaling(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Watts(0).String(), "0W"},
		{Watts(1500).String(), "1.5kW"},
		{Watts(0.005).String(), "5mW"},
		{Watts(2.5e6).String(), "2.5MW"},
		{Joules(3.6e6).String(), "3.6MJ"},
		{Hertz(1.4e9).String(), "1.4GHz"},
		{Bytes(2048).String(), "2.048kB"},
		{Seconds(0).String(), "0s"},
		{Seconds(0.0123).String(), "12.3ms"},
		{Seconds(4e-6).String(), "4us"},
		{Seconds(3e-9).String(), "3ns"},
		{Seconds(7200).String(), "2h"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String = %q, want %q", c.got, c.want)
		}
	}
}

func TestStringNegative(t *testing.T) {
	// Negative quantities should render with the sign, not panic or
	// pick a wrong scale.
	if s := Watts(-3.5).String(); !strings.HasPrefix(s, "-") {
		t.Errorf("negative power rendered %q", s)
	}
}

func TestConstants(t *testing.T) {
	if GHz != 1e9 || MHz != 1e6 || KHz != 1e3 {
		t.Error("frequency constants wrong")
	}
	if GB != 1e9 || MB != 1e6 || KB != 1e3 {
		t.Error("size constants wrong")
	}
	if float64(KWh) != 3.6e6 {
		t.Error("kWh constant wrong")
	}
}

// fmtScaled and fmtSeconds are the fmt forms the strconv formatters
// replaced; the formatters must print their bytes exactly.
func fmtScaled(v float64, unit string) string {
	abs := math.Abs(v)
	switch {
	case abs == 0:
		return "0" + unit
	case abs >= 1e9:
		return fmt.Sprintf("%.4gG%s", v/1e9, unit)
	case abs >= 1e6:
		return fmt.Sprintf("%.4gM%s", v/1e6, unit)
	case abs >= 1e3:
		return fmt.Sprintf("%.4gk%s", v/1e3, unit)
	case abs >= 1:
		return fmt.Sprintf("%.4g%s", v, unit)
	case abs >= 1e-3:
		return fmt.Sprintf("%.4gm%s", v*1e3, unit)
	case abs >= 1e-6:
		return fmt.Sprintf("%.4gu%s", v*1e6, unit)
	default:
		return fmt.Sprintf("%.4gn%s", v*1e9, unit)
	}
}

func fmtSeconds(v float64) string {
	abs := math.Abs(v)
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.3gns", v*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.3gus", v*1e6)
	case abs < 1:
		return fmt.Sprintf("%.3gms", v*1e3)
	case abs < 3600:
		return fmt.Sprintf("%.4gs", v)
	default:
		return fmt.Sprintf("%.4gh", v/3600)
	}
}

// TestFormattersMatchFmt: every String method prints what its fmt form
// printed, over a sweep of magnitudes from subnormals to the float64
// range (both signs, each SI boundary and its neighbours, values that
// round up across a boundary) plus zeros, ±Inf and NaN.
func TestFormattersMatchFmt(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 2.5e-310, math.MaxFloat64, 0.99995, 999.95, 9999.5, 3599.99, 3600}
	for e := -320; e <= 308; e++ {
		base := math.Pow(10, float64(e))
		for _, m := range []float64{1, 1.2345, 2.5, 5, 9.9995, 9.99949} {
			v := m * base
			vals = append(vals, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20000 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		for _, x := range []float64{v, -v} {
			checks := []struct{ got, want string }{
				{Watts(x).String(), fmtScaled(x, "W")},
				{Joules(x).String(), fmtScaled(x, "J")},
				{Hertz(x).String(), fmtScaled(x, "Hz")},
				{string(Hertz(x).Append([]byte("f="))), "f=" + fmtScaled(x, "Hz")},
				{Bytes(x).String(), fmtScaled(x, "B")},
				{PerSecond(x).String(), fmtScaled(x, "/s")},
				{Seconds(x).String(), fmtSeconds(x)},
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Fatalf("%v (bits %#x): got %q, want %q", x, math.Float64bits(x), c.got, c.want)
				}
			}
		}
	}
}
