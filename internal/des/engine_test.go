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
		if _, err := e.Schedule(d, func() { order = append(order, i) }); err != nil {
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
	if e.Now() != 3 {
		t.Errorf("clock = %g, want 3", e.Now())
	}
}

func TestEqualTimesFIFOByScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if _, err := e.Schedule(1, func() { order = append(order, i) }); err != nil {
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
		times = append(times, e.Now())
		n++
		if n < 4 {
			if _, err := e.Schedule(0.5, chain); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := e.Schedule(1, chain); err != nil {
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
		if _, err := e.Schedule(d, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Run(2.5); n != 2 {
		t.Errorf("executed %d events before horizon, want 2", n)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	// Events at exactly the horizon run.
	e2 := New()
	ran := false
	if _, err := e2.Schedule(2, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	e2.Run(2)
	if !ran {
		t.Error("event at exactly the horizon did not run")
	}
}

func TestRunAdvancesClockToHorizonWhenIdle(t *testing.T) {
	e := New()
	if _, err := e.Schedule(1, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if e.Now() != 10 {
		t.Errorf("idle clock = %g, want horizon 10", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev, err := e.Schedule(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel(ev)
	e.Cancel(nil) // must not panic
	e.Run(math.Inf(1))
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestScheduleErrors(t *testing.T) {
	e := New()
	if _, err := e.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := e.Schedule(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay accepted")
	}
	if _, err := e.Schedule(1, nil); err == nil {
		t.Error("nil action accepted")
	}
	if _, err := e.ScheduleAt(5, func() {}); err != nil {
		t.Errorf("ScheduleAt(5) on fresh engine: %v", err)
	}
	e.Run(math.Inf(1))
	if _, err := e.ScheduleAt(1, func() {}); err == nil {
		t.Error("scheduling in the past accepted")
	}
}

func TestStepsCount(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		if _, err := e.Schedule(float64(i), func() {}); err != nil {
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
		if _, err := e.Schedule(d, func() {
			if e.Now() < last {
				t.Error("time went backwards")
			}
			last = e.Now()
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

func TestStepPrimitives(t *testing.T) {
	e := New()
	var order []int
	for i, d := range []float64{3, 1, 2} {
		i, d := i, d
		if _, err := e.Schedule(d, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if !e.hasPendingEvents() {
		t.Fatal("hasPendingEvents = false with 3 queued events")
	}
	tm, ok := e.peekNextEventTime()
	if !ok || tm != 1 {
		t.Fatalf("peekNextEventTime = %g, %v; want 1, true", tm, ok)
	}
	if e.Now() != 0 {
		t.Errorf("peek advanced the clock to %g", e.Now())
	}
	steps := 0
	for e.hasPendingEvents() {
		if !e.processNextEvent() {
			t.Fatal("processNextEvent = false with pending events")
		}
		steps++
	}
	if steps != 3 {
		t.Errorf("stepped %d events, want 3", steps)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("clock = %g, want 3", e.Now())
	}
	if e.processNextEvent() {
		t.Error("processNextEvent = true on an empty queue")
	}
	if _, ok := e.peekNextEventTime(); ok {
		t.Error("peekNextEventTime ok on an empty queue")
	}
}

func TestPeekSkipsCancelledEvents(t *testing.T) {
	e := New()
	ev, err := e.Schedule(1, func() { t.Error("cancelled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(2, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Cancel(ev)
	tm, ok := e.peekNextEventTime()
	if !ok || tm != 2 {
		t.Fatalf("peekNextEventTime = %g, %v; want 2, true (cancelled head skipped)", tm, ok)
	}
	if !e.processNextEvent() {
		t.Fatal("processNextEvent = false with a live event queued")
	}
	if e.hasPendingEvents() {
		t.Error("hasPendingEvents = true after draining")
	}
	// An all-cancelled queue reads as empty.
	e2 := New()
	ev2, _ := e2.Schedule(1, func() {})
	e2.Cancel(ev2)
	if e2.hasPendingEvents() {
		t.Error("hasPendingEvents = true with only cancelled events")
	}
	if e2.processNextEvent() {
		t.Error("processNextEvent executed a cancelled event")
	}
}

// TestStepLoopMatchesRun drives two identical schedules, one via Run and
// one via the step primitives, and requires identical traces: Run is
// nothing but the step loop plus its horizon rule.
func TestStepLoopMatchesRun(t *testing.T) {
	build := func() (*Engine, *[]float64) {
		e := New()
		var times []float64
		var chain func()
		n := 0
		chain = func() {
			times = append(times, e.Now())
			n++
			if n < 50 {
				if _, err := e.Schedule(0.25+float64(n%3)*0.5, chain); err != nil {
					t.Error(err)
				}
			}
		}
		if _, err := e.Schedule(1, chain); err != nil {
			t.Fatal(err)
		}
		return e, &times
	}
	e1, t1 := build()
	e1.Run(math.Inf(1))
	e2, t2 := build()
	for e2.hasPendingEvents() {
		e2.processNextEvent()
	}
	if len(*t1) != len(*t2) {
		t.Fatalf("Run fired %d events, step loop %d", len(*t1), len(*t2))
	}
	for i := range *t1 {
		if (*t1)[i] != (*t2)[i] {
			t.Fatalf("event %d: Run at %g, step loop at %g", i, (*t1)[i], (*t2)[i])
		}
	}
	if e1.Now() != e2.Now() || e1.Steps() != e2.Steps() {
		t.Errorf("final state differs: Run (now %g, steps %d) vs step loop (now %g, steps %d)",
			e1.Now(), e1.Steps(), e2.Now(), e2.Steps())
	}
}
