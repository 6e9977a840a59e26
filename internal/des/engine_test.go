package des

import (
	"math"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	for i, d := range []float64{3, 1, 2} {
		i, d := i, d
		if err := e.Schedule(d, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(math.Inf(1))
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.now != 3 {
		t.Errorf("clock = %g, want 3", e.now)
	}
}

func TestEqualTimesFIFOByScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := e.Schedule(1, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(math.Inf(1))
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	e := New()
	var times []float64
	var chain func()
	n := 0
	chain = func() {
		times = append(times, e.now)
		n++
		if n < 4 {
			if err := e.Schedule(0.5, chain); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.Schedule(1, chain); err != nil {
		t.Fatal(err)
	}
	e.Run(math.Inf(1))
	want := []float64{1, 1.5, 2, 2.5}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestRunHorizonStopsEarly(t *testing.T) {
	e := New()
	fired := 0
	for _, d := range []float64{1, 2, 3, 4} {
		if err := e.Schedule(d, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Run(2.5); n != 2 {
		t.Errorf("executed %d events before horizon, want 2", n)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if len(e.queue) != 2 {
		t.Errorf("pending = %d, want 2", len(e.queue))
	}
	// Events at exactly the horizon run.
	e2 := New()
	ran := false
	if err := e2.Schedule(2, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	e2.Run(2)
	if !ran {
		t.Error("event at exactly the horizon did not run")
	}
}

func TestRunAdvancesClockToHorizonWhenIdle(t *testing.T) {
	e := New()
	if err := e.Schedule(1, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if e.now != 10 {
		t.Errorf("idle clock = %g, want horizon 10", e.now)
	}
}

func TestScheduleErrors(t *testing.T) {
	e := New()
	if err := e.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
	if err := e.Schedule(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay accepted")
	}
	if err := e.Schedule(1, nil); err == nil {
		t.Error("nil action accepted")
	}
	if err := e.ScheduleAt(5, func() {}); err != nil {
		t.Errorf("ScheduleAt(5) on fresh engine: %v", err)
	}
	e.Run(math.Inf(1))
	if err := e.ScheduleAt(1, func() {}); err == nil {
		t.Error("scheduling in the past accepted")
	}
}

func TestStepsCount(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		if err := e.Schedule(float64(i), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(math.Inf(1))
	if e.Steps() != 10 {
		t.Errorf("steps = %d, want 10", e.Steps())
	}
}

// TestManyEventsHeapStress pushes enough events to exercise heap
// reordering paths.
func TestManyEventsHeapStress(t *testing.T) {
	e := New()
	const n = 50000
	// Deterministic pseudo-random delays via a simple LCG.
	x := uint64(12345)
	last := -1.0
	count := 0
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		d := float64(x%1000000) / 1000
		if err := e.Schedule(d, func() {
			if e.now < last {
				t.Error("time went backwards")
			}
			last = e.now
			count++
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(math.Inf(1))
	if count != n {
		t.Errorf("executed %d, want %d", count, n)
	}
}
