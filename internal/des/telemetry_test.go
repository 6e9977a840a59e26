package des

import (
	"testing"

	"repro/internal/telemetry"
)

// TestEngineTelemetry: the engine reports scheduled/fired event counts
// and queue-depth watermarks into an installed registry.
func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)

	e := New()
	var fired int
	for i := 0; i < 5; i++ {
		if err := e.Schedule(float64(i), func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	// The sixth event lies past the horizon: scheduled, never fired.
	if err := e.Schedule(200, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	e.Run(100)

	if got := reg.Counter("des.events_scheduled").Value(); got != 6 {
		t.Errorf("events_scheduled = %d, want 6", got)
	}
	if got := reg.Counter("des.events_fired").Value(); got != 5 {
		t.Errorf("events_fired = %d, want 5", got)
	}
	if got := reg.Gauge("des.queue_depth_max").Value(); got != 6 {
		t.Errorf("queue_depth_max = %g, want 6", got)
	}
	if got := reg.Gauge("des.queue_depth").Value(); got != 1 {
		t.Errorf("queue_depth after the horizon = %g, want 1", got)
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
}

// TestEngineUninstrumented: with no registry installed the engine works
// exactly as before (nil instruments no-op).
func TestEngineUninstrumented(t *testing.T) {
	e := New()
	ran := false
	if err := e.Schedule(1, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if n := e.Run(2); n != 1 || !ran {
		t.Fatalf("run executed %d events (ran=%v), want 1", n, ran)
	}
}
