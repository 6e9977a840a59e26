package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// val reads an optional -benchmem column; -1 stands for absent.
func val(p *int64) int64 {
	if p == nil {
		return -1
	}
	return *p
}

// TestParseKeepsMetricsAndEnvironment: a result row keeps every custom
// ReportMetric column by unit beside ns/op, B/op and allocs/op, the
// GOMAXPROCS suffix leaves the name, and the header lines fill in the
// environment.
func TestParseKeepsMetricsAndEnvironment(t *testing.T) {
	in := strings.Join([]string{
		"goversion: go1.24.0",
		"commit: abc123",
		"goos: linux",
		"cpu: Test CPU",
		"BenchmarkFleetRun/nodes=1200-2   \t     752\t   1686043 ns/op\t     21659 events/op\t 128110893 node-s/s\t  492449 B/op\t    2443 allocs/op",
		"BenchmarkWaitCDF-2   \t  982352\t      1357 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkFrontierSweepFastWarm-2   \t   14204\t     84008 ns/op\t 433053180 configs/s\t    6167 B/op\t      28 allocs/op",
		"PASS",
	}, "\n")
	sum, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sum.GoMaxProcs != 2 || sum.GoVersion != "go1.24.0" || sum.Commit != "abc123" || sum.CPU != "Test CPU" {
		t.Fatalf("environment %+v", sum)
	}
	if len(sum.Results) != 3 {
		t.Fatalf("%d results, want 3", len(sum.Results))
	}
	r := sum.Results[0]
	if r.Name != "BenchmarkFleetRun/nodes=1200" || r.Iterations != 752 || r.NsPerOp != 1686043 ||
		val(r.BytesPerOp) != 492449 || val(r.AllocsPerOp) != 2443 {
		t.Fatalf("result %+v", r)
	}
	if r.Metrics["events/op"] != 21659 || r.Metrics["node-s/s"] != 128110893 || len(r.Metrics) != 2 {
		t.Fatalf("metrics %v", r.Metrics)
	}
	if sum.Results[1].Metrics != nil {
		t.Fatalf("no custom columns, got %v", sum.Results[1].Metrics)
	}
	// The frontier sweeps print configs/s between ns/op and B/op.
	if r := sum.Results[2]; r.Name != "BenchmarkFrontierSweepFastWarm" || r.NsPerOp != 84008 ||
		r.Metrics["configs/s"] != 433053180 || len(r.Metrics) != 1 || val(r.BytesPerOp) != 6167 || val(r.AllocsPerOp) != 28 {
		t.Fatalf("frontier result %+v", r)
	}
}

// TestParseKeepsMeasuredZeros: a row whose -benchmem columns read 0 B/op
// and 0 allocs/op is written with both fields at 0, and a row without
// those columns is written with neither.
func TestParseKeepsMeasuredZeros(t *testing.T) {
	sum, err := parse(strings.NewReader(strings.Join([]string{
		"BenchmarkEvaluateCalcs-2   \t 9856437\t       121.2 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkNoBenchmem-2   \t  1000\t      2500 ns/op",
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{
		`{"name":"BenchmarkEvaluateCalcs","iterations":9856437,"ns_per_op":121.2,"bytes_per_op":0,"allocs_per_op":0}`,
		`{"name":"BenchmarkNoBenchmem","iterations":1000,"ns_per_op":2500}`,
	} {
		raw, err := json.Marshal(sum.Results[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != want {
			t.Errorf("row written as %s, want %s", raw, want)
		}
	}
}
