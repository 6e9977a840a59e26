package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/telemetry"
)

// TestGetIsBatchOfOne: a GET is a batch of one. Every GET below and
// the one-item POST asking the same question must agree: a 200 GET body
// is byte for byte the POST's results[0].result, and a 4xx GET's code
// is the item error's code. GETs must not touch the batch counters or
// set X-Batch-Errors.
func TestGetIsBatchOfOne(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.New(), MaxInflight: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cases := []struct{ get, post string }{
		// TestEndpoints
		{"/v1/percentiles?d=1&u=0.9", `{"items":[{"d":1,"u":[0.9]}]}`},
		{"/v1/percentiles?workload=EP&mix=32xA9,12xK10&u=0.5&p=95", `{"p":[95],"items":[{"workload":"EP","mix":"32xA9,12xK10","u":[0.5]}]}`},
		{"/v1/percentiles?d=0.5&u=0", `{"items":[{"d":0.5,"u":[0]}]}`},
		{"/v1/percentiles?d=1&u=1.5", `{"items":[{"d":1,"u":[1.5]}]}`},
		{"/v1/percentiles?d=-2&u=0.9", `{"items":[{"d":-2,"u":[0.9]}]}`},
		{"/v1/percentiles?d=1&mix=32xA9&u=0.5", `{"items":[{"d":1,"mix":"32xA9","u":[0.5]}]}`},
		{"/v1/percentiles?workload=nope&mix=32xA9&u=0.5", `{"items":[{"workload":"nope","mix":"32xA9","u":[0.5]}]}`},
		{"/v1/percentiles?d=1e308&u=0.5&p=95", `{"p":[95],"items":[{"d":1e308,"u":[0.5]}]}`},
		{"/v1/percentiles?d=1e308&u=0.99&p=99", `{"p":[99],"items":[{"d":1e308,"u":[0.99]}]}`},
		{"/v1/epmetrics?workload=EP&mix=32xA9,12xK10", `{"items":[{"workload":"EP","mix":"32xA9,12xK10"}]}`},
		{"/v1/epmetrics?workload=EP&mix=16xA9,2xK10&ref=32xA9,12xK10", `{"items":[{"workload":"EP","mix":"16xA9,2xK10","ref":"32xA9,12xK10"}]}`},
		{"/v1/epmetrics?workload=EP", `{"items":[{"workload":"EP","mix":""}]}`},
		{"/v1/epmetrics?mix=zzz", `{"items":[{"mix":"zzz"}]}`},
		{"/v1/frontier?workload=EP&max_a9=4&max_k10=2", `{"items":[{"workload":"EP","max_a9":4,"max_k10":2}]}`},
		{"/v1/frontier?workload=EP&max_a9=4&max_k10=2&deadline=10", `{"items":[{"workload":"EP","max_a9":4,"max_k10":2,"deadline_seconds":10}]}`},
		{"/v1/frontier?max_a9=100000&max_k10=100000", `{"items":[{"max_a9":100000,"max_k10":100000}]}`},
		{"/v1/frontier?max_a9=-3", `{"items":[{"max_a9":-3}]}`},
		// TestPercentilesKernelSelector
		{"/v1/percentiles?d=1&u=0.7&p=95", `{"p":[95],"items":[{"d":1,"u":[0.7]}]}`},
		{"/v1/percentiles?d=1&u=0.7&p=95&kernel=mg1&scv=1", `{"p":[95],"kernel":"mg1","scv":1,"items":[{"d":1,"u":[0.7]}]}`},
		{"/v1/percentiles?d=1&u=0.7&p=95&kernel=mmk&servers=4", `{"p":[95],"items":[{"d":1,"u":[0.7],"kernel":"mmk","servers":4}]}`},
		{"/v1/percentiles?d=1&u=0.7&kernel=zzz", `{"kernel":"zzz","items":[{"d":1,"u":[0.7]}]}`},
		{"/v1/percentiles?d=1&u=0.7&scv=2", `{"scv":2,"items":[{"d":1,"u":[0.7]}]}`},
		{"/v1/percentiles?d=1&u=0.7&kernel=mg1&scv=1&servers=3", `{"items":[{"d":1,"u":[0.7],"kernel":"mg1","scv":1,"servers":3}]}`},
		{"/v1/percentiles?d=1&u=0.7&kernel=mmk", `{"items":[{"d":1,"u":[0.7],"kernel":"mmk"}]}`},
		{"/v1/percentiles?d=1&u=0.7&kernel=mg1&scv=-1", `{"kernel":"mg1","scv":-1,"items":[{"d":1,"u":[0.7]}]}`},
		// TestFrontierLatencyAnnotation
		{"/v1/frontier?workload=EP&max_a9=4&max_k10=2&u=0.6&p=95", `{"items":[{"workload":"EP","max_a9":4,"max_k10":2,"u":0.6,"p":95}]}`},
		{"/v1/frontier?workload=EP&max_a9=4&max_k10=2&u=0.6&p=95&kernel=mg1&scv=4", `{"items":[{"workload":"EP","max_a9":4,"max_k10":2,"u":0.6,"p":95,"kernel":"mg1","scv":4}]}`},
		{"/v1/frontier?workload=EP&max_a9=4&max_k10=2&u=0.6&deadline=1000", `{"items":[{"workload":"EP","max_a9":4,"max_k10":2,"u":0.6,"deadline_seconds":1000}]}`},
		{"/v1/frontier?max_a9=4&max_k10=2&u=1.2", `{"items":[{"max_a9":4,"max_k10":2,"u":1.2}]}`},
		{"/v1/frontier?max_a9=4&max_k10=2&u=0.5&kernel=zzz", `{"items":[{"max_a9":4,"max_k10":2,"u":0.5,"kernel":"zzz"}]}`},
		{"/v1/frontier?max_a9=4&max_k10=2&u=0.9999999999999999&p=99.99999999999999&kernel=mg1&scv=1e300", `{"items":[{"max_a9":4,"max_k10":2,"u":0.9999999999999999,"p":99.99999999999999,"kernel":"mg1","scv":1e300}]}`},
		// Negative counts and deadlines, and a count that overflows the
		// configuration space: both methods must reject them.
		{"/v1/frontier?max_a9=4&max_k10=2&deadline=-5", `{"items":[{"max_a9":4,"max_k10":2,"deadline_seconds":-5}]}`},
		{"/v1/frontier?max_a9=-3&max_k10=2", `{"items":[{"max_a9":-3,"max_k10":2}]}`},
		{"/v1/frontier?max_a9=4611686018427387904&max_k10=1", `{"items":[{"max_a9":4611686018427387904,"max_k10":1}]}`},
	}
	for _, tc := range cases {
		get := httptest.NewRecorder()
		srv.Handler().ServeHTTP(get, httptest.NewRequest(http.MethodGet, tc.get, nil))
		if get.Header().Get("X-Batch-Errors") != "" {
			t.Errorf("GET %s set X-Batch-Errors", tc.get)
		}
		path := tc.get[:bytes.IndexByte([]byte(tc.get), '?')]
		post := httptest.NewRecorder()
		srv.Handler().ServeHTTP(post, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(tc.post))))
		var batch struct {
			Results []struct {
				Result json.RawMessage `json:"result"`
				Error  *BatchItemError `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(post.Body.Bytes(), &batch); err != nil || post.Code != http.StatusOK || len(batch.Results) != 1 {
			t.Fatalf("POST %s %s: status %d, %v: %s", path, tc.post, post.Code, err, post.Body.String())
		}
		item := batch.Results[0]
		if get.Code == http.StatusOK {
			if want := bytes.TrimSuffix(get.Body.Bytes(), []byte("\n")); !bytes.Equal(item.Result, want) {
				t.Errorf("GET %s body\n  %s\nPOST %s result\n  %s", tc.get, want, tc.post, item.Result)
			}
			continue
		}
		var env struct{ Error BatchItemError }
		if err := json.Unmarshal(get.Body.Bytes(), &env); err != nil {
			t.Fatalf("GET %s: decoding error envelope: %v", tc.get, err)
		}
		if item.Error == nil || item.Error.Code != env.Error.Code {
			t.Errorf("GET %s: %d %q; POST item error %+v, want the same code", tc.get, get.Code, env.Error.Code, item.Error)
		}
	}
	if got, want := srv.ins.batchRequests.Value(), uint64(len(cases)); got != want {
		t.Errorf("serve.batch.requests = %d, want %d: one per POST and none for the GETs", got, want)
	}
	if got, want := srv.ins.batchItems.Value(), uint64(len(cases)); got != want {
		t.Errorf("serve.batch.items = %d, want %d", got, want)
	}
}
