package perfcounter

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAccumulates(t *testing.T) {
	var c Counters
	c.Add(Counters{WorkCycles: 10, StallCycles: 5, MemCycles: 3, CacheMisses: 1, IOBytes: 100, IORequests: 2, Instructions: 9})
	c.Add(Counters{WorkCycles: 10, StallCycles: 5, MemCycles: 3, CacheMisses: 1, IOBytes: 100, IORequests: 2, Instructions: 9})
	if c.WorkCycles != 20 || c.StallCycles != 10 || c.MemCycles != 6 ||
		c.CacheMisses != 2 || c.IOBytes != 200 || c.IORequests != 4 || c.Instructions != 18 {
		t.Errorf("Add wrong: %+v", c)
	}
}

// TestAddCommutative is a property test: accumulation order is
// irrelevant for counter-scale values (float addition is only
// associative away from overflow, so the generator draws realistic
// counter magnitudes rather than arbitrary float64s).
func TestAddCommutative(t *testing.T) {
	mk := func(v [7]uint32) Counters {
		return Counters{
			WorkCycles:   float64(v[0]),
			StallCycles:  float64(v[1]),
			MemCycles:    float64(v[2]),
			CacheMisses:  float64(v[3]),
			IOBytes:      float64(v[4]),
			IORequests:   float64(v[5]),
			Instructions: float64(v[6]),
		}
	}
	f := func(a, b, c [7]uint32) bool {
		var x, y Counters
		x.Add(mk(a))
		x.Add(mk(b))
		x.Add(mk(c))
		y.Add(mk(c))
		y.Add(mk(a))
		y.Add(mk(b))
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	c := Counters{WorkCycles: 1e9, IOBytes: 5e6}
	s := c.String()
	for _, frag := range []string{"work=1e+09", "io=5e+06"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
}
