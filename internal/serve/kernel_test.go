package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/queueing"
)

// kernel_test.go covers the kernel selector plumbing of the serving
// plane: /v1/percentiles kernel=/scv=/servers= parameters, the frontier
// latency annotation, per-item kernel fields in batches, and — most
// importantly — that the M/D/1 default's bytes are untouched by any of
// it.

// TestPercentilesKernelSelector exercises the GET kernel selector end
// to end: kernel echo fields, M/M/1-exact means for mg1 at scv=1, and
// the validation surface.
func TestPercentilesKernelSelector(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The default response must not grow a kernel field.
	status, body := get(t, ts.URL+"/v1/percentiles?d=1&u=0.7&p=95")
	if status != 200 || strings.Contains(body, `"kernel"`) {
		t.Fatalf("default response grew a kernel field (status %d): %s", status, body)
	}

	status, body = get(t, ts.URL+"/v1/percentiles?d=1&u=0.7&p=95&kernel=mg1&scv=1")
	if status != 200 {
		t.Fatalf("mg1 request: status %d: %s", status, body)
	}
	var resp PercentilesResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Kernel != "mg1" || resp.SCV != 1 {
		t.Fatalf("kernel echo = %q scv=%g, want mg1/1", resp.Kernel, resp.SCV)
	}
	// At scv=1 the M/G/1 is the M/M/1: mean wait rho*d/(1-rho).
	wantMean := 0.7 / 0.3
	if math.Abs(resp.MeanWaitSeconds-wantMean) > 1e-9 {
		t.Fatalf("mg1(scv=1) mean wait %g, want %g", resp.MeanWaitSeconds, wantMean)
	}
	// M/M/1 p95 sojourn: d*ln(20)/(1-rho).
	wantP95 := math.Log(20) / 0.3
	if len(resp.Percentiles) != 1 || math.Abs(resp.Percentiles[0].ResponseSeconds-wantP95) > 1e-9 {
		t.Fatalf("mg1(scv=1) p95 response = %+v, want %g", resp.Percentiles, wantP95)
	}

	status, body = get(t, ts.URL+"/v1/percentiles?d=1&u=0.7&p=95&kernel=mmk&servers=4")
	if status != 200 {
		t.Fatalf("mmk request: status %d: %s", status, body)
	}
	resp = PercentilesResponse{}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Kernel != "mmk" || resp.Servers != 4 {
		t.Fatalf("kernel echo = %q servers=%d, want mmk/4", resp.Kernel, resp.Servers)
	}
	// Pooling four servers at the same per-server load waits less than
	// one fat M/M/1-style server; sanity-check the mean is positive and
	// below the mg1(scv=1) mean.
	if resp.MeanWaitSeconds <= 0 || resp.MeanWaitSeconds >= wantMean {
		t.Fatalf("mmk(k=4) mean wait %g, want in (0, %g)", resp.MeanWaitSeconds, wantMean)
	}

	for _, tc := range []struct {
		name, query, wantErr string
	}{
		{"unknown kernel", "kernel=zzz", "unknown kernel"},
		{"scv on md1", "scv=2", "scv applies to the mg1 kernel"},
		{"servers on mg1", "kernel=mg1&scv=1&servers=3", "servers applies to the mmk kernel"},
		{"mmk without servers", "kernel=mmk", "mmk needs servers"},
		{"negative scv", "kernel=mg1&scv=-1", "must be finite"},
	} {
		status, body := get(t, ts.URL+"/v1/percentiles?d=1&u=0.7&"+tc.query)
		if status != 400 || !strings.Contains(body, tc.wantErr) {
			t.Errorf("%s: status %d body %s, want 400 containing %q", tc.name, status, body, tc.wantErr)
		}
	}
}

// TestFrontierLatencyAnnotation: u= turns on the per-point tail-latency
// annotation, absent otherwise, and the annotation responds to the
// kernel: heavier-tailed service (mg1 at high SCV) must report a longer
// p95 than the M/D/1 default on the same frontier.
func TestFrontierLatencyAnnotation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := get(t, ts.URL+"/v1/frontier?workload=EP&max_a9=4&max_k10=2")
	if status != 200 || strings.Contains(body, "response_seconds") {
		t.Fatalf("unannotated frontier grew response_seconds (status %d)", status)
	}

	decode := func(query string) FrontierResponse {
		t.Helper()
		status, body := get(t, ts.URL+"/v1/frontier?workload=EP&max_a9=4&max_k10=2&"+query)
		if status != 200 {
			t.Fatalf("frontier %s: status %d: %s", query, status, body)
		}
		var resp FrontierResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp
	}
	md1 := decode("u=0.6&p=95")
	if len(md1.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i, p := range md1.Frontier {
		if p.ResponseSeconds <= 0 {
			t.Fatalf("frontier[%d] missing latency annotation: %+v", i, p)
		}
		// The annotation is at least the service time.
		if p.ResponseSeconds < p.TimeSeconds {
			t.Fatalf("frontier[%d] latency %g below service time %g", i, p.ResponseSeconds, p.TimeSeconds)
		}
	}
	mg1 := decode("u=0.6&p=95&kernel=mg1&scv=4")
	for i := range md1.Frontier {
		if mg1.Frontier[i].ResponseSeconds <= md1.Frontier[i].ResponseSeconds {
			t.Fatalf("frontier[%d]: mg1(scv=4) p95 %g not above md1 %g",
				i, mg1.Frontier[i].ResponseSeconds, md1.Frontier[i].ResponseSeconds)
		}
	}
	// The recommended point carries the annotation too.
	sweet := decode("u=0.6&deadline=1000")
	if sweet.Recommended == nil || sweet.Recommended.ResponseSeconds <= 0 {
		t.Fatalf("recommended point lost the annotation: %+v", sweet.Recommended)
	}

	if status, body := get(t, ts.URL+"/v1/frontier?max_a9=4&max_k10=2&u=1.2"); status != 400 ||
		!strings.Contains(body, "outside (0, 1)") {
		t.Fatalf("u=1.2: status %d body %s", status, body)
	}
	if status, body := get(t, ts.URL+"/v1/frontier?max_a9=4&max_k10=2&u=0.5&kernel=zzz"); status != 400 ||
		!strings.Contains(body, "unknown kernel") {
		t.Fatalf("bad kernel: status %d body %s", status, body)
	}
}

// TestBatchKernelFields: the request-level kernel triple is the default
// for items, an item naming a kernel overrides it wholly, and an
// invalid item kernel fails only that item.
func TestBatchKernelFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, err := json.Marshal(map[string]any{
		"u":      []float64{0.7},
		"p":      []float64{95},
		"kernel": "mg1",
		"scv":    1.0,
		"items": []map[string]any{
			{"d": 1.0},                  // inherits mg1(scv=1)
			{"d": 1.0, "kernel": "md1"}, // overrides back to the default
			{"d": 1.0, "kernel": "mmk"}, // invalid: servers missing
			{"d": 1.0, "kernel": "mmk", "servers": 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/percentiles", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var batch PercentilesBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if batch.Count != 4 || batch.Errors != 1 {
		t.Fatalf("count=%d errors=%d, want 4/1", batch.Count, batch.Errors)
	}
	r := batch.Results
	if r[0].Result == nil || r[0].Result.Kernel != "mg1" || r[0].Result.SCV != 1 {
		t.Fatalf("item 0 should inherit mg1(scv=1): %+v", r[0])
	}
	if r[1].Result == nil || r[1].Result.Kernel != "" {
		t.Fatalf("item 1 should override to the md1 default: %+v", r[1])
	}
	if r[2].Error == nil || !strings.Contains(r[2].Error.Message, "servers >= 1") {
		t.Fatalf("item 2 should fail kernel validation: %+v", r[2])
	}
	if r[3].Result == nil || r[3].Result.Kernel != "mmk" || r[3].Result.Servers != 2 {
		t.Fatalf("item 3 should be mmk(k=2): %+v", r[3])
	}
	// mg1(scv=1) waits longer than md1 at the same load: the kernel
	// actually reached the computation, not just the echo fields.
	if !(r[0].Result.MeanWaitSeconds > r[1].Result.MeanWaitSeconds) {
		t.Fatalf("mg1 mean wait %g not above md1 %g",
			r[0].Result.MeanWaitSeconds, r[1].Result.MeanWaitSeconds)
	}
}

// TestPercentilesSojournBytes pins /v1/percentiles' GET and POST bytes
// over a kernel × p × u × d probe grid to the kernels' own batch
// answers. Under M/D/1 and M/G/1 at SCV 0 the handler derives each
// sojourn percentile from the wait batch (wait + d) instead of solving
// it again; every served body must still be byte for byte the body
// carrying the kernel's WaitPercentilesContext and
// ResponsePercentilesContext answers, and each one-point POST result
// the GET body.
func TestPercentilesSojournBytes(t *testing.T) {
	srv, err := New(Config{MaxInflight: 64})
	if err != nil {
		t.Fatal(err)
	}
	kernels := []struct {
		query string
		spec  queueing.Spec
	}{
		{"", queueing.Spec{}},
		{"&kernel=md1", queueing.Spec{}},
		{"&kernel=mg1", queueing.Spec{Kind: queueing.KindMG1}},
		{"&kernel=mg1&scv=0", queueing.Spec{Kind: queueing.KindMG1}},
		{"&kernel=mg1&scv=0.25", queueing.Spec{Kind: queueing.KindMG1, SCV: 0.25}},
		{"&kernel=mg1&scv=0.5", queueing.Spec{Kind: queueing.KindMG1, SCV: 0.5}},
		{"&kernel=mg1&scv=0.9", queueing.Spec{Kind: queueing.KindMG1, SCV: 0.9}},
		{"&kernel=mg1&scv=1", queueing.Spec{Kind: queueing.KindMG1, SCV: 1}},
		{"&kernel=mg1&scv=4", queueing.Spec{Kind: queueing.KindMG1, SCV: 4}},
		{"&kernel=mmk&servers=1", queueing.Spec{Kind: queueing.KindMMK, Servers: 1}},
		{"&kernel=mmk&servers=2", queueing.Spec{Kind: queueing.KindMMK, Servers: 2}},
		{"&kernel=mmk&servers=4", queueing.Spec{Kind: queueing.KindMMK, Servers: 4}},
		{"&kernel=mmk&servers=16", queueing.Spec{Kind: queueing.KindMMK, Servers: 16}},
	}
	pLists := []string{"", "50", "95", "99.9", "50,95,99", "0,30.000000000000004,99.99999999", "99.9999"}
	us := []float64{0, 0.05, 0.1, 0.3, 0.5, 0.5000000000000001, 0.7, 0.70000000000001,
		0.9, 0.95, 0.99, 0.995, 0.999, 0.9999999, 0.99999999999, 1.5}
	for _, d := range []float64{1, 0.0042, 3.7} {
		for _, k := range kernels {
			for _, pl := range pLists {
				ps := defaultPercentiles
				pq := ""
				if pl != "" {
					pq = "&p=" + pl
					ps = nil
					for _, f := range strings.Split(pl, ",") {
						v, _ := strconv.ParseFloat(f, 64)
						ps = append(ps, v)
					}
				}
				var gets [][]byte
				var ok []bool
				for _, u := range us {
					target := fmt.Sprintf("/v1/percentiles?d=%v&u=%v%s%s", d, u, pq, k.query)
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
					body := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n"))
					gets = append(gets, body)
					ok = append(ok, rec.Code == http.StatusOK)
					if rec.Code != http.StatusOK {
						continue
					}
					q, err := k.spec.Build(u, d)
					if err != nil {
						t.Fatalf("%s: served 200, kernel build failed: %v", target, err)
					}
					waits, err1 := q.WaitPercentilesContext(context.Background(), ps)
					resps, err2 := q.ResponsePercentilesContext(context.Background(), ps)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s: %v, %v", target, err1, err2)
					}
					var want PercentilesResponse
					if err := json.Unmarshal(body, &want); err != nil || len(want.Percentiles) != len(ps) {
						t.Fatalf("%s: %v: %s", target, err, body)
					}
					for i := range ps {
						want.Percentiles[i].WaitSeconds = waits[i]
						want.Percentiles[i].ResponseSeconds = resps[i]
					}
					if wb, _ := json.Marshal(want); !bytes.Equal(wb, body) {
						t.Fatalf("%s:\n served %s\n kernel %s", target, body, wb)
					}
				}
				// The same points as one POST: results in u order, each
				// the GET body (or, for a rejected u, an item error).
				req := PercentilesBatchRequest{U: us, P: ps, Items: []PercentilesBatchItem{{D: d}}}
				if k.query != "" {
					req.Kernel = k.spec.Kind.String()
					req.SCV, req.Servers = k.spec.SCV, k.spec.Servers
				}
				rb, _ := json.Marshal(req)
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/percentiles", bytes.NewReader(rb)))
				var batch struct {
					Results []struct {
						Result json.RawMessage `json:"result"`
					} `json:"results"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || len(batch.Results) != len(us) {
					t.Fatalf("POST %s: %d %v: %s", rb, rec.Code, err, rec.Body.Bytes())
				}
				for i, r := range batch.Results {
					if (r.Result != nil) != ok[i] || r.Result != nil && !bytes.Equal(r.Result, gets[i]) {
						t.Fatalf("POST %s result %d:\n %s\nGET body\n %s", rb, i, r.Result, gets[i])
					}
				}
			}
		}
	}
}
