package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	a = NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g outside [0,1)", v)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n/10) {
			t.Errorf("bucket %d has %d, want ~%d", i, c, n/10)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const rate = 2.5
	var sum KahanSum
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(rate)
		if v < 0 {
			t.Fatalf("negative exponential %g", v)
		}
		sum.Add(v)
	}
	mean := sum.Sum() / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("exponential mean %g, want %g", mean, 1/rate)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const sd = 3.0
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.NormFloat64(sd))
	}
	if math.Abs(s.Mean()) > 0.05 {
		t.Errorf("normal mean %g, want ~0", s.Mean())
	}
	if math.Abs(s.StdDev()-sd) > 0.05 {
		t.Errorf("normal sd %g, want %g", s.StdDev(), sd)
	}
}

func TestSplitDecorrelated(t *testing.T) {
	parent := NewRNG(5)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams matched %d/1000 draws", same)
	}
}

func TestKahanSumPrecision(t *testing.T) {
	// Adding 1e8 copies of 0.1 naively loses precision; Kahan does not.
	var k KahanSum
	const n = 10000000
	for i := 0; i < n; i++ {
		k.Add(0.1)
	}
	if math.Abs(k.Sum()-n*0.1) > 1e-6 {
		t.Errorf("Kahan sum %g, want %g", k.Sum(), n*0.1)
	}
}

func TestTrapezoidExactForLinear(t *testing.T) {
	xs := Linspace(0, 2, 11)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 1 // integral over [0,2] = 6 + 2 = 8
	}
	got, err := Trapezoid(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-8) > 1e-12 {
		t.Errorf("Trapezoid = %g, want 8", got)
	}
}

func TestTrapezoidErrors(t *testing.T) {
	if _, err := Trapezoid([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Trapezoid([]float64{0}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Trapezoid([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("non-increasing xs accepted")
	}
}

func TestIntegrateFuncQuadratic(t *testing.T) {
	// int_0^1 x^2 dx = 1/3; trapezoid converges quadratically.
	got := IntegrateFunc(func(x float64) float64 { return x * x }, 0, 1, 1000)
	if math.Abs(got-1.0/3) > 1e-6 {
		t.Errorf("integral = %g, want 1/3", got)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		got, err := PercentileSorted(data, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	data := []float64{1, 3, 5}
	if _, err := PercentileSorted(data, 50); err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 || data[1] != 3 || data[2] != 5 {
		t.Error("PercentileSorted mutated its input")
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := PercentileSorted(nil, 50); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := PercentileSorted([]float64{1}, -1); err == nil {
		t.Error("negative percentile accepted")
	}
	if _, err := PercentileSorted([]float64{1}, 101); err == nil {
		t.Error("percentile > 100 accepted")
	}
	if _, err := PercentileSorted([]float64{1}, math.NaN()); err == nil {
		t.Error("NaN percentile accepted")
	}
}

// TestPercentileMonotoneProperty: for random data, percentile is
// monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		r := NewRNG(seed)
		data := make([]float64, n)
		for i := range data {
			data[i] = r.Float64() * 100
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v, err := PercentileSorted(sorted, p)
			if err != nil || v < prev || v < sorted[0]-1e-9 || v > sorted[n-1]+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %g, want %g", i, v[i], want[i])
		}
	}
	if got := Linspace(3, 7, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v", got)
	}
	// Final point must be exact even when the step does not divide evenly.
	v2 := Linspace(0, 0.3, 4)
	if v2[len(v2)-1] != 0.3 {
		t.Errorf("Linspace end = %g, want exactly 0.3", v2[len(v2)-1])
	}
}

func TestSummaryWelford(t *testing.T) {
	var s Summary
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range data {
		s.Add(v)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Errorf("mean = %g n = %d", s.Mean(), s.N())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %g, want %g", s.Variance(), 32.0/7)
	}
	if s.min != 2 || s.max != 9 {
		t.Errorf("min/max = %g/%g", s.min, s.max)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(11, 10) != 0.1 {
		t.Error("RelErr wrong")
	}
	if RelErr(5, 0) != 5 {
		t.Error("RelErr at zero want should be absolute")
	}
}
