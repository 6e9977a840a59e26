package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/telemetry"
)

// postReplay posts body to /v1/replay and returns status + full body.
func postReplay(t *testing.T, base, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/replay", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/replay: %v", err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp.StatusCode, sb.String()
}

const smallShapeBody = `{
	"mixes": ["32xA9,12xK10", "25xA9,5xK10"],
	"adaptive": true,
	"slo_seconds": 0.5,
	"shape": {"kind": "diurnal", "mean": 0.35, "amplitude": 0.3, "step_seconds": 3600, "steps": 24}
}`

func TestReplayStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postReplay(t, ts.URL, smallShapeBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 25 {
		t.Fatalf("want 24 step lines + summary, got %d lines", len(lines))
	}
	for i, line := range lines[:24] {
		var frame struct {
			Step *replay.Step `json:"step"`
		}
		if err := json.Unmarshal([]byte(line), &frame); err != nil || frame.Step == nil {
			t.Fatalf("line %d is not a step frame: %v (%s)", i, err, line)
		}
		if frame.Step.T != float64(i)*3600 {
			t.Fatalf("step %d at t=%g, want %g", i, frame.Step.T, float64(i)*3600)
		}
		if len(frame.Step.ResponseSeconds) != 2 {
			t.Fatalf("step %d percentiles: %v", i, frame.Step.ResponseSeconds)
		}
	}
	var last struct {
		Summary *replay.Summary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[24]), &last); err != nil || last.Summary == nil {
		t.Fatalf("final line is not a summary: %v (%s)", err, lines[24])
	}
	if last.Summary.Steps != 24 || !last.Summary.Adaptive {
		t.Fatalf("summary %+v", last.Summary)
	}
	if len(last.Summary.Candidates) != 2 {
		t.Fatalf("candidates %v", last.Summary.Candidates)
	}
}

func TestReplaySummaryOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
		"budget": true,
		"summary_only": true,
		"trace": {"points": [{"t":0,"load":0.2},{"t":600,"load":0.5},{"t":1200,"load":0.3}]}
	}`
	status, out := postReplay(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("summary_only returned %d lines:\n%s", len(lines), out)
	}
	var frame struct {
		Summary *replay.Summary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &frame); err != nil || frame.Summary == nil {
		t.Fatalf("not a summary line: %v (%s)", err, lines[0])
	}
	// The 1 kW budget ladder has five rungs.
	if len(frame.Summary.Candidates) != 5 {
		t.Fatalf("budget ladder candidates: %v", frame.Summary.Candidates)
	}
}

// TestReplayValidation: every malformed body fails before the stream
// starts, with the uniform JSON error envelope and the right status.
func TestReplayValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
		contains   string
	}{
		{"empty body", ``, 400, "decoding request body"},
		{"not json", `hello`, 400, "decoding request body"},
		{"unknown field", `{"bogus": 1}`, 400, "decoding request body"},
		{"no trace or shape", `{"mixes": ["32xA9"]}`, 400, "missing trace"},
		{"both trace and shape", `{"mixes":["32xA9"],"trace":{"points":[{"t":0,"load":0.1},{"t":1,"load":0.2}]},"shape":{"kind":"ramp","step_seconds":1,"steps":4}}`, 400, "not both"},
		{"no candidates", `{"trace":{"points":[{"t":0,"load":0.1},{"t":1,"load":0.2}]}}`, 400, "missing candidate set"},
		{"budget and mixes", `{"budget":true,"mixes":["32xA9"],"trace":{"points":[{"t":0,"load":0.1},{"t":1,"load":0.2}]}}`, 400, "not both"},
		{"bad mix", `{"mixes":["wat"],"trace":{"points":[{"t":0,"load":0.1},{"t":1,"load":0.2}]}}`, 400, "invalid mix"},
		{"unknown workload", `{"workload":"nope","mixes":["32xA9"],"trace":{"points":[{"t":0,"load":0.1},{"t":1,"load":0.2}]}}`, 404, "nope"},
		{"non-monotonic trace", `{"mixes":["32xA9"],"trace":{"points":[{"t":5,"load":0.1},{"t":1,"load":0.2}]}}`, 400, "non-monotonic timestamps"},
		{"load out of range", `{"mixes":["32xA9"],"trace":{"points":[{"t":0,"load":0.1},{"t":1,"load":1.7}]}}`, 400, "outside [0, 1]"},
		{"single point", `{"mixes":["32xA9"],"trace":{"points":[{"t":0,"load":0.1}]}}`, 400, "at least 2 points"},
		{"unknown shape kind", `{"mixes":["32xA9"],"shape":{"kind":"square","step_seconds":1,"steps":4}}`, 400, "unknown shape kind"},
		{"steps without levels", `{"mixes":["32xA9"],"shape":{"kind":"steps","step_seconds":1,"steps":4}}`, 400, "needs levels"},
		{"zero shape step", `{"mixes":["32xA9"],"shape":{"kind":"ramp","step_seconds":0,"steps":4}}`, 400, "step must be positive"},
		{"shape over cap", `{"mixes":["32xA9"],"shape":{"kind":"ramp","step_seconds":1,"steps":65537}}`, 400, "exceeds the per-request cap"},
		{"bad percentile", `{"mixes":["32xA9"],"percentiles":[120],"trace":{"points":[{"t":0,"load":0.1},{"t":1,"load":0.2}]}}`, 400, "outside [0, 100)"},
		{"too many mixes", fmt.Sprintf(`{"mixes":[%s],"trace":{"points":[{"t":0,"load":0.1},{"t":1,"load":0.2}]}}`, strings.Repeat(`"1xA9",`, 32)+`"2xA9"`), 400, "at most 32 mixes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postReplay(t, ts.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, body)
			}
			if !strings.Contains(body, tc.contains) {
				t.Fatalf("body %q does not contain %q", body, tc.contains)
			}
			var envelope struct {
				Error *errorBody `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &envelope); err != nil || envelope.Error == nil {
				t.Fatalf("error is not the JSON envelope: %v (%s)", err, body)
			}
		})
	}
}

// TestReplayTraceOverCap: an explicit trace longer than maxReplaySteps
// is rejected before any evaluation.
func TestReplayTraceOverCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var pts []string
	for i := 0; i <= maxReplaySteps; i++ {
		pts = append(pts, fmt.Sprintf(`{"t":%d,"load":0.2}`, i))
	}
	body := fmt.Sprintf(`{"mixes":["32xA9"],"trace":{"points":[%s]}}`, strings.Join(pts, ","))
	status, out := postReplay(t, ts.URL, body)
	if status != 400 || !strings.Contains(out, "exceeds the per-request cap") {
		t.Fatalf("status %d: %s", status, out)
	}
}

func TestReplayMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/replay")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d: %s", status, body)
	}
	if !strings.Contains(body, "method_not_allowed") {
		t.Fatalf("body %s", body)
	}
}

// TestReplayDeadline: a replay that cannot finish inside the request
// deadline dies mid-stream with an NDJSON error line (the 200 is
// already on the wire), and the per-step percentile work is cancelled.
func TestReplayDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{Telemetry: reg, DefaultTimeout: 50 * time.Millisecond})
	body := `{
		"budget": true,
		"adaptive": true,
		"shape": {"kind": "diurnal", "mean": 0.4, "amplitude": 0.3, "step_seconds": 60, "steps": 20000}
	}`
	status, out := postReplay(t, ts.URL, body)
	if status != http.StatusOK {
		// The deadline can fire before the first chunk completes; then
		// the proper 504 envelope wins.
		if status != http.StatusGatewayTimeout {
			t.Fatalf("status %d: %s", status, out)
		}
		return
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"error"`) || !strings.Contains(last, "deadline_exceeded") {
		t.Fatalf("stream did not end with a deadline error line: %s", last)
	}
	checkGoroutines(t, before)
}

// TestReplayClientDisconnect: a client that walks away mid-stream must
// not leave the replay running or goroutines behind.
func TestReplayClientDisconnect(t *testing.T) {
	before := runtime.NumGoroutine()
	_, ts := newTestServer(t, Config{DefaultTimeout: 30 * time.Second})
	body := `{
		"budget": true,
		"shape": {"kind": "diurnal", "mean": 0.4, "amplitude": 0.3, "step_seconds": 60, "steps": 20000}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/replay", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	// Read one line of the stream, then hang up.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()
	checkGoroutines(t, before)
}

// TestReplayOverload: replay requests go through the same admission
// control as the other model endpoints; a saturated server sheds them
// with 429.
func TestReplayOverload(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := telemetry.New()
	srv, ts := newTestServer(t, Config{Telemetry: reg, MaxInflight: 1, MaxQueue: -1, DefaultTimeout: 10 * time.Second})

	// Occupy the only slot directly.
	release := make(chan struct{})
	acquired := make(chan struct{})
	go func() {
		rel, err := srv.lim.acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
			close(acquired)
			return
		}
		close(acquired)
		<-release
		rel()
	}()
	<-acquired

	status, out := postReplay(t, ts.URL, smallShapeBody)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", status, out)
	}
	if !strings.Contains(out, "overloaded") {
		t.Fatalf("body %s", out)
	}
	close(release)
	waitFor(t, "slot released", func() bool {
		st, _ := postReplay(t, ts.URL, smallShapeBody)
		return st == http.StatusOK
	})
	checkGoroutines(t, before)
}

// TestReplayMatchesEngine: the streamed summary equals a direct
// replay.Run over the same inputs — the endpoint adds transport, not
// model behavior.
func TestReplayMatchesEngine(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	status, out := postReplay(t, ts.URL, smallShapeBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var frame struct {
		Summary *replay.Summary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &frame); err != nil || frame.Summary == nil {
		t.Fatalf("summary line: %v", err)
	}

	var req ReplayRequest
	if err := json.Unmarshal([]byte(smallShapeBody), &req); err != nil {
		t.Fatal(err)
	}
	shape, err := req.Shape.shape()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := replay.FromShape(shape, req.Shape.StepSeconds, req.Shape.Steps)
	if err != nil {
		t.Fatal(err)
	}
	cands, ok := srv.replayCandidates(nopResponseWriter{}, req)
	if !ok {
		t.Fatal("candidates failed")
	}
	direct, err := replay.Run(context.Background(), cands, tr, replay.Options{
		Adaptive: req.Adaptive,
		SLO:      req.SLOSeconds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frame.Summary.TotalEnergyJoules != direct.Summary.TotalEnergyJoules ||
		frame.Summary.Switches != direct.Summary.Switches ||
		frame.Summary.SLOViolations != direct.Summary.SLOViolations {
		t.Fatalf("endpoint summary %+v != engine %+v", frame.Summary, direct.Summary)
	}
}

// nopResponseWriter satisfies http.ResponseWriter for helper calls whose
// error paths are not under test.
type nopResponseWriter struct{}

func (nopResponseWriter) Header() http.Header         { return http.Header{} }
func (nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (nopResponseWriter) WriteHeader(int)             {}
