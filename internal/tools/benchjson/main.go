// Command benchjson turns `go test -bench` output into the small JSON
// summaries committed as BENCH_queueing.json, BENCH_frontier.json and
// BENCH_fleet.json: per-benchmark ns/op, B/op and allocs/op, every
// custom b.ReportMetric column (the frontier's configs/s, the fleet's
// node-s/s and events/op), the headline speedups of the queueing fast
// paths and the frontier engine over their preserved reference
// implementations, and how the numbers were measured: GOMAXPROCS (go
// test's -N name suffix; absent means 1), the Go version and the
// commit. The last two come from `goversion:` and `commit:` header
// lines, which the Makefile writes ahead of the benchmark output the
// way go test writes `cpu:`. Invoked by `make bench-queueing`,
// `make bench-frontier` and `make bench-fleet`; reads the benchmark
// output on stdin (or a file argument) and writes JSON to stdout.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// procsSuffix is go test's GOMAXPROCS suffix on a benchmark name, e.g.
// the -8 of BenchmarkWaitCDF-8.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

type result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are set exactly when the row carried
	// -benchmem's columns, so a measured 0 is written as 0 and a row
	// without them writes neither.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom columns, keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type summary struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"goversion,omitempty"`
	Commit     string `json:"commit,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	// Speedups pit a preserved reference implementation (the queueing
	// kernels' slow solves, the frontier's per-configuration sweep and
	// model.Evaluate) against the fast path on the same inputs. The
	// frontier's warm pair times a walk of a warm table's kept space;
	// its reused pair, a repeated sweep that walks nothing.
	Speedups map[string]float64 `json:"speedups,omitempty"`
	Results  []result           `json:"results"`
}

// parse reads the header lines and result rows of a benchmark run. A
// row is the name, the iteration count, then (value, unit) pairs, e.g.
//
//	BenchmarkFleetRun/nodes=100-2  1000  1.2e+06 ns/op  1.5e+07 node-s/s  1820 events/op  257776 B/op  3970 allocs/op
func parse(r io.Reader) (summary, error) {
	sum := summary{GoMaxProcs: 1}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if key, v, ok := strings.Cut(line, ": "); ok {
			switch v = strings.TrimSpace(v); key {
			case "goversion":
				sum.GoVersion = v
			case "commit":
				sum.Commit = v
			case "cpu":
				sum.CPU = v
			}
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		res := result{Name: f[0], Iterations: iters}
		if m := procsSuffix.FindStringSubmatch(res.Name); m != nil {
			res.Name = strings.TrimSuffix(res.Name, m[0])
			sum.GoMaxProcs, _ = strconv.Atoi(m[1])
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return sum, fmt.Errorf("benchjson: bad %s value in %q: %w", f[i+1], line, err)
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				n := int64(v)
				res.BytesPerOp = &n
			case "allocs/op":
				n := int64(v)
				res.AllocsPerOp = &n
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		sum.Results = append(sum.Results, res)
	}
	return sum, sc.Err()
}

func main() {
	in := io.Reader(os.Stdin)
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	sum, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(sum.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on input")
		os.Exit(1)
	}

	byName := map[string]float64{}
	for _, r := range sum.Results {
		byName[r.Name] = r.NsPerOp
	}
	ratio := func(num, den string) (float64, bool) {
		n, okN := byName[num]
		d, okD := byName[den]
		if !okN || !okD || d == 0 {
			return 0, false
		}
		return n / d, true
	}
	for out, pair := range map[string][2]string{
		"wait_cdf":                  {"BenchmarkWaitCDFReference", "BenchmarkWaitCDF"},
		"response_percentile_cold":  {"BenchmarkResponsePercentileReference", "BenchmarkResponsePercentileCold"},
		"response_percentile_batch": {"BenchmarkResponsePercentileReference", "BenchmarkResponsePercentilesBatch"},
		"frontier_sweep":            {"BenchmarkFrontierSweepReference", "BenchmarkFrontierSweepFast"},
		"frontier_sweep_warm":       {"BenchmarkFrontierSweepReference", "BenchmarkFrontierSweepWarmWalk"},
		"frontier_sweep_reused":     {"BenchmarkFrontierSweepReference", "BenchmarkFrontierSweepFastWarm"},
		"frontier_sweep_noprune":    {"BenchmarkFrontierSweepReference", "BenchmarkFrontierSweepFastNoPrune"},
		"evaluate":                  {"BenchmarkEvaluateReference", "BenchmarkEvaluateCalcs"},
	} {
		if v, ok := ratio(pair[0], pair[1]); ok {
			if sum.Speedups == nil {
				sum.Speedups = map[string]float64{}
			}
			// Two significant digits: these are headline ratios, not
			// benchstat-grade measurements.
			sum.Speedups[out] = float64(int64(v*100+0.5)) / 100
		}
	}

	sort.Slice(sum.Results, func(i, j int) bool { return sum.Results[i].Name < sum.Results[j].Name })
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
