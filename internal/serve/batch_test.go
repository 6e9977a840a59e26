package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// postJSON posts body to the server's handler and returns the recorder.
func postJSON(t *testing.T, srv *Server, target string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal body: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// TestPercentilesBatch: a POST batch expands items × utilization points
// into deterministic item-major results that match the scalar GET
// answers bit for bit, and the batch counters record the expansion.
func TestPercentilesBatch(t *testing.T) {
	reg := telemetry.New()
	// Pin the capacity above the batch weight so the charged units are
	// not clamped on small machines.
	srv, ts := newTestServer(t, Config{Telemetry: reg, MaxInflight: 16})

	body := map[string]any{
		"u": []float64{0.5, 0.9},
		"p": []float64{95},
		"items": []map[string]any{
			{"d": 1.0},
			{"d": 2.0, "u": []float64{0.7}},
			{"workload": "EP", "mix": "32xA9,12xK10"},
		},
	}
	rec := postJSON(t, srv, "/v1/percentiles", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var resp PercentilesBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	// Expansion: item 0 at u=0.5,0.9; item 1 at u=0.7; item 2 at 0.5,0.9.
	if resp.Count != 5 || len(resp.Results) != 5 || resp.Errors != 0 {
		t.Fatalf("count=%d errors=%d len=%d, want 5/0/5: %s", resp.Count, resp.Errors, len(resp.Results), rec.Body.String())
	}
	wantOrder := []struct {
		item int
		u    float64
	}{{0, 0.5}, {0, 0.9}, {1, 0.7}, {2, 0.5}, {2, 0.9}}
	for i, want := range wantOrder {
		got := resp.Results[i]
		if got.Item != want.item || got.U != want.u || got.Result == nil || got.Error != nil {
			t.Fatalf("result[%d] = {item %d, u %g, result? %t}, want {item %d, u %g, result}", i, got.Item, got.U, got.Result != nil, want.item, want.u)
		}
	}
	if hdr := rec.Header().Get("X-Batch-Errors"); hdr != "0" {
		t.Fatalf("X-Batch-Errors = %q, want 0", hdr)
	}

	// The batch answers must match the scalar endpoint exactly.
	status, scalarBody := get(t, ts.URL+"/v1/percentiles?d=1&u=0.9&p=95")
	if status != 200 {
		t.Fatalf("scalar status %d", status)
	}
	var scalar PercentilesResponse
	if err := json.Unmarshal([]byte(scalarBody), &scalar); err != nil {
		t.Fatalf("decoding scalar response: %v", err)
	}
	batched := resp.Results[1].Result
	if batched.MeanWaitSeconds != scalar.MeanWaitSeconds ||
		batched.Percentiles[0].WaitSeconds != scalar.Percentiles[0].WaitSeconds {
		t.Fatalf("batch item diverges from scalar: %+v vs %+v", batched, scalar)
	}

	if got := srv.ins.batchRequests.Value(); got != 1 {
		t.Fatalf("serve.batch.requests = %d, want 1", got)
	}
	if got := srv.ins.batchItems.Value(); got != 5 {
		t.Fatalf("serve.batch.items = %d, want 5", got)
	}
	// The batch charged its expanded count as admission units: 5 for the
	// POST plus 1 for the scalar GET above.
	if got := srv.ins.admittedUnits.Value(); got != 6 {
		t.Fatalf("serve.admitted_units = %d, want 6", got)
	}
}

// TestPercentilesBatchItemErrors: one bad item yields one error
// envelope while the rest of the batch still answers; the batch itself
// is a 200.
func TestPercentilesBatchItemErrors(t *testing.T) {
	reg := telemetry.New()
	srv, _ := newTestServer(t, Config{Telemetry: reg})
	body := map[string]any{
		"u": []float64{0.5},
		"items": []map[string]any{
			{"d": 1.0},
			{"mix": "zzz"},                       // invalid mix
			{"workload": "nope", "mix": "32xA9"}, // unknown workload
			{"d": 1.0, "u": []float64{1.5}},      // u out of range
			{"d": -1.0},                          // bad service time
		},
	}
	rec := postJSON(t, srv, "/v1/percentiles", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var resp PercentilesBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Count != 5 || resp.Errors != 4 {
		t.Fatalf("count=%d errors=%d, want 5/4: %s", resp.Count, resp.Errors, rec.Body.String())
	}
	if resp.Results[0].Error != nil || resp.Results[0].Result == nil {
		t.Fatalf("good item errored: %s", rec.Body.String())
	}
	wantCodes := map[int]string{1: "bad_request", 2: "not_found", 3: "bad_request", 4: "bad_request"}
	for idx, code := range wantCodes {
		e := resp.Results[idx].Error
		if e == nil || e.Code != code {
			t.Fatalf("result[%d] error = %+v, want code %q", idx, e, code)
		}
	}
	if hdr := rec.Header().Get("X-Batch-Errors"); hdr != "4" {
		t.Fatalf("X-Batch-Errors = %q, want 4", hdr)
	}
	if got := srv.ins.batchItemErrors.Value(); got != 4 {
		t.Fatalf("serve.batch.item_errors = %d, want 4", got)
	}
}

// TestBatchStructuralRejects: structurally invalid batches are rejected
// whole with 400 before admission.
func TestBatchStructuralRejects(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     any
		contains string
	}{
		{"empty items", map[string]any{"u": []float64{0.5}}, "no items"},
		{"no utilization", map[string]any{"items": []map[string]any{{"d": 1.0}}}, "no utilization points"},
		{"too wide", map[string]any{
			"u":     make([]float64, 128),
			"items": make([]map[string]any, 16),
		}, "more than the per-request cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, srv, "/v1/percentiles", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), tc.contains) {
				t.Fatalf("body %q missing %q", rec.Body.String(), tc.contains)
			}
		})
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/percentiles", strings.NewReader("{not json"))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid JSON") {
		t.Fatalf("bad JSON: status %d body %s", rec.Code, rec.Body.String())
	}
}

// TestEpmetricsBatch: the EP-metrics batch answers per item with
// request-level workload/ref defaulting.
func TestEpmetricsBatch(t *testing.T) {
	srv, _ := newTestServer(t, Config{Telemetry: telemetry.New()})
	body := map[string]any{
		"workload": "EP",
		"items": []map[string]any{
			{"mix": "32xA9,12xK10"},
			{"mix": "16xA9,2xK10", "ref": "32xA9,12xK10"},
			{"mix": ""}, // per-item error
		},
	}
	rec := postJSON(t, srv, "/v1/epmetrics", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp EPMetricsBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Count != 3 || resp.Errors != 1 {
		t.Fatalf("count=%d errors=%d, want 3/1", resp.Count, resp.Errors)
	}
	if r := resp.Results[0]; r.Result == nil || r.Result.Metrics.DPR == 0 {
		t.Fatalf("result[0] = %+v, want metrics", r)
	}
	if r := resp.Results[1]; r.Result == nil || r.Result.Reference == nil {
		t.Fatalf("result[1] missing reference block: %+v", r)
	}
	if r := resp.Results[2]; r.Error == nil || !strings.Contains(r.Error.Message, "missing mix") {
		t.Fatalf("result[2] = %+v, want missing-mix error", r)
	}
}

// TestFrontierBatch: the frontier batch answers per item and defaults
// MaxA9/MaxK10 like the GET form.
func TestFrontierBatch(t *testing.T) {
	srv, _ := newTestServer(t, Config{Telemetry: telemetry.New()})
	four, two := 4, 2
	body := FrontierBatchRequest{Items: []FrontierBatchItem{
		{MaxA9: &four, MaxK10: &two},
		{MaxA9: &four, MaxK10: &two, DeadlineSeconds: 10},
		{Workload: "nope", MaxA9: &four, MaxK10: &two},
	}}
	rec := postJSON(t, srv, "/v1/frontier", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp FrontierBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Count != 3 || resp.Errors != 1 {
		t.Fatalf("count=%d errors=%d, want 3/1: %s", resp.Count, resp.Errors, rec.Body.String())
	}
	if r := resp.Results[0]; r.Result == nil || len(r.Result.Frontier) == 0 {
		t.Fatalf("result[0] = %+v, want frontier points", r)
	}
	if r := resp.Results[1]; r.Result == nil || r.Result.Recommended == nil {
		t.Fatalf("result[1] missing recommended point: %+v", r)
	}
	if r := resp.Results[2]; r.Error == nil || r.Error.Code != "not_found" {
		t.Fatalf("result[2] = %+v, want not_found", r)
	}

	// Counts and deadlines the GET form rejects fail their item the same
	// way: negative, or a count large enough to overflow the
	// configuration-space product.
	huge, one, minus3 := 4611686018427387904, 1, -3
	bad := postJSON(t, srv, "/v1/frontier", FrontierBatchRequest{Items: []FrontierBatchItem{
		{MaxA9: &huge, MaxK10: &one},
		{MaxA9: &minus3, MaxK10: &two},
		{MaxA9: &four, MaxK10: &two, DeadlineSeconds: -5},
	}})
	var badResp FrontierBatchResponse
	if err := json.Unmarshal(bad.Body.Bytes(), &badResp); err != nil || bad.Code != http.StatusOK {
		t.Fatalf("status %d, decoding %v: %s", bad.Code, err, bad.Body.String())
	}
	for i, r := range badResp.Results {
		if r.Error == nil || r.Error.Code != "bad_request" {
			t.Fatalf("result[%d] = %+v, want bad_request", i, r)
		}
	}
}

// TestBatchWeightedAdmission: a batch of N items charges N units, so it
// sheds exactly like N scalar requests would — the regression this
// guards is batches slipping past admission at scalar cost (one unit
// for hundreds of evaluations).
func TestBatchWeightedAdmission(t *testing.T) {
	reg := telemetry.New()
	srv, _ := newTestServer(t, Config{Telemetry: reg, MaxInflight: 4, MaxQueue: -1})

	// Hold 3 of the 4 units directly: one unit stays free.
	release, err := srv.lim.acquire(context.Background(), 3)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	// A batch expanding to 2 evaluations needs 2 units -> shed.
	body := map[string]any{"u": []float64{0.5, 0.9}, "items": []map[string]any{{"d": 1.0}}}
	rec := postJSON(t, srv, "/v1/percentiles", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("wide batch status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("429 missing Retry-After")
	}
	if got := srv.ins.shed.Value(); got != 1 {
		t.Fatalf("serve.shed = %d, want 1", got)
	}

	// A scalar request (1 unit) still fits.
	if rec := do(t, srv, http.MethodGet, "/v1/percentiles?d=1&u=0.5", nil); rec.Code != http.StatusOK {
		t.Fatalf("scalar status %d, want 200: %s", rec.Code, rec.Body.String())
	}

	// After release the same batch is admitted and charged 2 units.
	release()
	units := srv.ins.admittedUnits.Value()
	rec = postJSON(t, srv, "/v1/percentiles", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch after release: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := srv.ins.admittedUnits.Value() - units; got != 2 {
		t.Fatalf("batch charged %d units, want 2", got)
	}
}

// TestBatchWiderThanCapacity: a batch wider than the whole admission
// budget is clamped to it and still runs (alone) instead of
// deadlocking or shedding an empty server.
func TestBatchWiderThanCapacity(t *testing.T) {
	srv, _ := newTestServer(t, Config{Telemetry: telemetry.New(), MaxInflight: 2, MaxQueue: 2})
	us := make([]float64, 8)
	for i := range us {
		us[i] = 0.1 + 0.1*float64(i)
	}
	body := map[string]any{"u": us, "items": []map[string]any{{"d": 1.0}}}
	rec := postJSON(t, srv, "/v1/percentiles", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var resp PercentilesBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Count != 8 || resp.Errors != 0 {
		t.Fatalf("count=%d errors=%d, want 8/0", resp.Count, resp.Errors)
	}
}

// TestFrontierAdmissionWeight: a frontier sweep charges admission units
// proportional to its configuration-space size — the satellite bugfix
// this pins is sweeps costing one unit regardless of whether they
// evaluate 40 configurations or 100k.
func TestFrontierAdmissionWeight(t *testing.T) {
	srv, _ := newTestServer(t, Config{Telemetry: telemetry.New()})

	// Small sweep: space below one admission unit -> weight 1.
	req := httptest.NewRequest(http.MethodGet, "/v1/frontier?max_a9=4&max_k10=2", nil)
	w, _, ok := srv.weighFrontier(httptest.NewRecorder(), req, req.URL.Query())
	if !ok || w != 1 {
		t.Fatalf("small sweep weight = %d ok=%t, want 1", w, ok)
	}

	// DVFS sweep: the space multiplies past frontierAdmissionUnit, and
	// the weigher must agree with the plan's own space count.
	req = httptest.NewRequest(http.MethodGet, "/v1/frontier?max_a9=16&max_k10=8&dvfs=1", nil)
	freq, err := frontierQuery(req.URL.Query())
	if err != nil {
		t.Fatalf("parsing dvfs query: %v", err)
	}
	plan := srv.resolveFrontier(&freq.Items[0])
	if plan.err != nil {
		t.Fatalf("resolveFrontier: %v", plan.err)
	}
	space := plan.space
	w, _, ok = srv.weighFrontier(httptest.NewRecorder(), req, req.URL.Query())
	if !ok || w != frontierUnits(space) {
		t.Fatalf("dvfs sweep weight = %d, want %d (space %d)", w, frontierUnits(space), space)
	}
	if w < 2 {
		t.Fatalf("dvfs sweep weight = %d, want proportional cost > 1 (space %d)", w, space)
	}

	// Batch weight is the sum of the items' sweep costs.
	four, two := 4, 2
	body, _ := json.Marshal(FrontierBatchRequest{Items: []FrontierBatchItem{
		{MaxA9: &four, MaxK10: &two},
		{MaxA9: &four, MaxK10: &two},
	}})
	preq := httptest.NewRequest(http.MethodPost, "/v1/frontier", bytes.NewReader(body))
	w, _, ok = srv.weighFrontier(httptest.NewRecorder(), preq, preq.URL.Query())
	if !ok || w != 2 {
		t.Fatalf("frontier batch weight = %d ok=%t, want 2", w, ok)
	}
}

// TestBatchPastDeadlineEvaluatesNothing: runBatch checks the context
// before every item, so a POST whose deadline has already passed
// answers 504 without evaluating an item — directly, and end to end
// with ?timeout=1ns, where no percentile solve runs.
func TestBatchPastDeadlineEvaluatesNothing(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	t.Cleanup(func() { telemetry.SetGlobal(nil) })
	srv, _ := newTestServer(t, Config{Telemetry: reg})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/percentiles", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	evaluated := 0
	srv.runBatch(rec, req, 8,
		func(context.Context, int) error { evaluated++; return nil },
		func(int, *BatchItemError) { t.Error("a slot failed") },
		func(int) any { t.Error("the batch answered"); return nil })
	if rec.Code != http.StatusGatewayTimeout || evaluated != 0 {
		t.Fatalf("status %d after %d evaluations, want 504 after none: %s", rec.Code, evaluated, rec.Body)
	}

	rec = postJSON(t, srv, "/v1/percentiles?timeout=1ns", map[string]any{
		"u": []float64{0.5, 0.7, 0.9}, "items": []map[string]any{{"d": 1.0}, {"d": 2.0}},
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("POST past its deadline: status %d, want 504: %s", rec.Code, rec.Body)
	}
	if n := reg.Counter("queueing.percentile_searches").Value(); n != 0 {
		t.Fatalf("POST past its deadline ran %d percentile searches, want 0", n)
	}
}
