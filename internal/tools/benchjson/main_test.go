package main

import (
	"strings"
	"testing"
)

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
		"PASS",
	}, "\n")
	sum, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sum.GoMaxProcs != 2 || sum.GoVersion != "go1.24.0" || sum.Commit != "abc123" || sum.CPU != "Test CPU" {
		t.Fatalf("environment %+v", sum)
	}
	if len(sum.Results) != 2 {
		t.Fatalf("%d results, want 2", len(sum.Results))
	}
	r := sum.Results[0]
	if r.Name != "BenchmarkFleetRun/nodes=1200" || r.Iterations != 752 || r.NsPerOp != 1686043 ||
		r.BytesPerOp != 492449 || r.AllocsPerOp != 2443 {
		t.Fatalf("result %+v", r)
	}
	if r.Metrics["events/op"] != 21659 || r.Metrics["node-s/s"] != 128110893 || len(r.Metrics) != 2 {
		t.Fatalf("metrics %v", r.Metrics)
	}
	if sum.Results[1].Metrics != nil {
		t.Fatalf("no custom columns, got %v", sum.Results[1].Metrics)
	}
}
