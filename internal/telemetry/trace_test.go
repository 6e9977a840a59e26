package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step per reading, making span timestamps
// deterministic.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

// TestChromeTraceGolden: with an injected clock the Chrome trace output
// is byte-for-byte reproducible and valid JSON.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracer()
	clk := &fakeClock{now: time.Unix(0, 0), step: 10 * time.Microsecond}
	tr.SetClock(clk.Now)
	// Clock readings (µs): SetClock origin=0; root begins 10; child
	// begins 20, ends 30; root ends 40.
	root := tr.Start("run")
	child := tr.Start("evaluate").Arg("configs", 42)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `[
{"name":"run","cat":"telemetry","ph":"X","ts":10,"dur":30,"pid":1,"tid":0},
{"name":"evaluate","cat":"telemetry","ph":"X","ts":20,"dur":10,"pid":1,"tid":0,"args":{"configs":42}}
]
`
	if buf.String() != want {
		t.Fatalf("trace output:\n%s\nwant:\n%s", buf.String(), want)
	}
	// The whole document must parse as one JSON array of events.
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" || ev["name"] == "" {
			t.Fatalf("malformed event %v", ev)
		}
	}
}

// TestTraceConcurrent: spans opened and closed from many goroutines
// record exactly once each and still serialize to valid JSON (run
// under -race via `make race`).
func TestTraceConcurrent(t *testing.T) {
	tr := NewTracer()
	const workers, spansPer = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				tr.Start(fmt.Sprintf("w%d", w)).End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != workers*spansPer {
		t.Fatalf("recorded %d spans, want %d", got, workers*spansPer)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("concurrent trace is not valid JSON: %v", err)
	}
	if len(events) != workers*spansPer {
		t.Fatalf("serialized %d events, want %d", len(events), workers*spansPer)
	}
}
