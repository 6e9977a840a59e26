package fleet

import (
	"sort"
	"testing"

	"repro/internal/stats"
)

// TestCalendarOrder: the calendar pops events in (time, engine,
// schedule seq) order under interleaved pushes and pops, with many
// ties on time and engine, exactly as sorting the pushed events would.
func TestCalendarOrder(t *testing.T) {
	rng := stats.NewRNG(5)
	var c calendar
	var pending []event
	popNext := func() {
		sort.Slice(pending, func(i, j int) bool { return pending[i].before(&pending[j]) })
		want := pending[0]
		pending = pending[1:]
		if got := c.pop(); got != want {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
	for range 2000 {
		if len(c.q) > 0 && rng.Intn(3) == 0 {
			popNext()
			continue
		}
		ev := event{t: float64(rng.Intn(4)), engine: rng.Intn(3), arg: int32(rng.Intn(100))}
		c.push(ev)
		ev.seq = c.seq
		pending = append(pending, ev)
	}
	for len(c.q) > 0 {
		popNext()
	}
}
