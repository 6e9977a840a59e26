package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestContextBasics(t *testing.T) {
	rc := NewRequestContext("")
	if len(rc.ID()) != 16 {
		t.Fatalf("minted ID %q, want 16 hex chars", rc.ID())
	}
	adopted := NewRequestContext("proxy-id-1")
	if adopted.ID() != "proxy-id-1" {
		t.Fatalf("adopted ID %q, want proxy-id-1", adopted.ID())
	}

	rc.Add(AttrConfigsEvaluated, 5)
	rc.Add(AttrConfigsEvaluated, 3)
	rc.Add(AttrReplaySteps, 1)
	if got := rc.Attr(AttrConfigsEvaluated); got != 8 {
		t.Fatalf("configs_evaluated = %d, want 8", got)
	}
	if rc.Attr(AttrReplaySteps) != 1 || len(rc.attrs) != 2 {
		t.Fatalf("attrs = %v", rc.attrs)
	}
}

func TestRequestContextOutcomeFirstWins(t *testing.T) {
	rc := NewRequestContext("")
	if rc.Outcome() != "" {
		t.Fatalf("fresh outcome %q", rc.Outcome())
	}
	rc.SetOutcome("")
	rc.SetOutcome("shed")
	rc.SetOutcome("deadline")
	if got := rc.Outcome(); got != "shed" {
		t.Fatalf("outcome %q, want shed (first non-empty wins)", got)
	}
}

func TestRequestContextNilSafety(t *testing.T) {
	var rc *RequestContext
	rc.Add("k", 1)
	rc.SetOutcome("x")
	Start(WithRequest(context.Background(), rc), "p").End()
	if rc.ID() != "" || rc.Attr("k") != 0 ||
		rc.Outcome() != "" || rc.Timeline() != nil ||
		rc.DroppedPhases() != 0 || rc.TimelineString() != "" || rc.Elapsed() != 0 {
		t.Fatal("nil RequestContext methods must all be no-ops")
	}
	if got := RequestFrom(context.Background()); got != nil {
		t.Fatalf("RequestFrom(plain ctx) = %v, want nil", got)
	}
	if got := RequestFrom(nil); got != nil { //nolint:staticcheck // nil ctx is the point
		t.Fatalf("RequestFrom(nil) = %v, want nil", got)
	}
	ctx := context.Background()
	if WithRequest(ctx, nil) != ctx {
		t.Fatal("WithRequest(ctx, nil) must return ctx unchanged")
	}
}

func TestRequestContextTimeline(t *testing.T) {
	rc := NewRequestContext("")
	ctx := WithRequest(context.Background(), rc)
	span := Start(ctx, "sweep.blocks")
	time.Sleep(time.Millisecond)
	span.End()
	Start(ctx, "pareto.frontier_sweep").End()
	events := rc.Timeline()
	if len(events) != 2 {
		t.Fatalf("timeline has %d events, want 2", len(events))
	}
	if events[0].Name != "sweep.blocks" || events[0].Dur <= 0 {
		t.Fatalf("first event %+v", events[0])
	}
	s := rc.TimelineString()
	if !strings.Contains(s, "sweep.blocks@") || !strings.Contains(s, ";pareto.frontier_sweep@") {
		t.Fatalf("TimelineString %q", s)
	}

	// Past the cap, phases are counted as dropped, not recorded.
	for i := 0; i < maxTimelineEvents+10; i++ {
		Start(ctx, "spam").End()
	}
	if len(rc.Timeline()) != maxTimelineEvents {
		t.Fatalf("timeline grew to %d, cap is %d", len(rc.Timeline()), maxTimelineEvents)
	}
	if d := rc.DroppedPhases(); d != 12 {
		t.Fatalf("dropped = %d, want 12", d)
	}
	if !strings.Contains(rc.TimelineString(), "(+12 dropped)") {
		t.Fatalf("TimelineString lacks dropped marker: %q", rc.TimelineString())
	}
}

// TestRequestContextConcurrent hammers one RequestContext from many
// goroutines, each ending spans on its timeline and attributing into
// its bag. Run with -race.
func TestRequestContextConcurrent(t *testing.T) {
	rc := NewRequestContext("")
	ctx := WithRequest(context.Background(), rc)
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rc.Add(AttrConfigsEvaluated, 1)
				Start(ctx, "work").End()
				rc.SetOutcome("done")
				_ = rc.Attr(AttrConfigsEvaluated)
				_ = rc.TimelineString()
			}
		}()
	}
	wg.Wait()
	if got := rc.Attr(AttrConfigsEvaluated); got != workers*perWorker {
		t.Fatalf("configs_evaluated = %d, want %d", got, workers*perWorker)
	}
	if got := len(rc.Timeline()) + rc.DroppedPhases(); got != workers*perWorker {
		t.Fatalf("timeline+dropped = %d, want %d", got, workers*perWorker)
	}
}

// TestContextHandlerNoBleed runs many concurrent "requests", each
// logging through ONE shared slog handler under its own RequestContext,
// and asserts every emitted line carries exactly its own request's ID —
// the no-cross-request-bleed property of the logging layer. Run with
// -race: the shared buffer is behind a mutex writer, the handler itself
// must be concurrency-safe.
func TestContextHandlerNoBleed(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger, err := NewLogger(&lockedWriter{mu: &mu, w: &buf}, "json", "debug")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	const requests = 64
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := NewRequestContext(fmt.Sprintf("req-%04d", i))
			ctx := WithRequest(context.Background(), rc)
			rc.Add(AttrReplaySteps, int64(i))
			logger.InfoContext(ctx, "request",
				slog.Int64(AttrReplaySteps, rc.Attr(AttrReplaySteps)))
		}()
	}
	wg.Wait()

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != requests {
		t.Fatalf("%d log lines, want %d", len(lines), requests)
	}
	seen := make(map[string]bool)
	for _, line := range lines {
		var rec struct {
			Msg       string `json:"msg"`
			RequestID string `json:"request_id"`
			Steps     int    `json:"replay_steps"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q not JSON: %v", line, err)
		}
		var n int
		if _, err := fmt.Sscanf(rec.RequestID, "req-%d", &n); err != nil {
			t.Fatalf("line %q has request_id %q", line, rec.RequestID)
		}
		// The attribute on the line must be the one its own request
		// accumulated, not a neighbor's.
		if rec.Steps != n {
			t.Fatalf("request %s logged replay_steps=%d — attribute bled across requests", rec.RequestID, rec.Steps)
		}
		if seen[rec.RequestID] {
			t.Fatalf("request_id %s appears twice", rec.RequestID)
		}
		seen[rec.RequestID] = true
	}
}

// lockedWriter serializes Writes from concurrent handler calls.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestContextHandlerPlainContext(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "text", "info")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	logger.Info("no scope here")
	if strings.Contains(buf.String(), "request_id") {
		t.Fatalf("unscoped log line grew a request_id: %q", buf.String())
	}
}

func TestParseLogLevelAndFormats(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"": slog.LevelInfo, "info": slog.LevelInfo, "DEBUG": slog.LevelDebug,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("verbose"); err == nil {
		t.Fatal("ParseLogLevel(verbose) did not fail")
	}
	if _, err := NewLogHandler(&bytes.Buffer{}, "xml", "info"); err == nil {
		t.Fatal("NewLogHandler(xml) did not fail")
	}
	// Level filtering: a debug record must not pass an info handler.
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	logger.Debug("hidden")
	logger.Info("visible")
	if strings.Contains(buf.String(), "hidden") || !strings.Contains(buf.String(), "visible") {
		t.Fatalf("level filtering broken: %q", buf.String())
	}
}

func TestDiscardLogger(t *testing.T) {
	l := DiscardLogger()
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("DiscardLogger claims to be enabled")
	}
	l.Error("goes nowhere") // must not panic
}
