// Command benchfrontier turns `go test -bench` output for the frontier
// sweep engine into the JSON summary committed as BENCH_frontier.json:
// per-benchmark ns/op, B/op, allocs/op and the configs/s throughput
// metric the sweep benchmarks report, plus the derived headline
// speedups of the memoized engine over the per-config reference sweep.
// The GOMAXPROCS the benchmarks ran under (go test's -N name suffix;
// absent means 1) is recorded with the numbers. Invoked by
// `make bench-frontier`; reads the benchmark output on stdin (or a
// file argument) and writes JSON to stdout.
//
// Unlike benchjson's, the line regex here must accept a custom metric
// between ns/op and B/op — the testing package prints ReportMetric
// values there, so `... 5107762 ns/op 7122493 configs/s 2384 B/op ...`
// is the expected shape.
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
)

// benchLine matches one result row, with the optional configs/s custom
// metric the sweep benchmarks emit via b.ReportMetric. The first -\d+
// group is go test's GOMAXPROCS suffix (omitted when it is 1).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op` +
		`(?:\s+([\d.eE+-]+) configs/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

type result struct {
	Name          string  `json:"name"`
	Iterations    int64   `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	ConfigsPerSec float64 `json:"configs_per_sec,omitempty"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
}

type summary struct {
	// GoMaxProcs is the scheduler width the benchmarks ran under.
	GoMaxProcs int `json:"gomaxprocs"`
	// Speedups pit the per-configuration reference sweep (one
	// model.Evaluate per point) against the memoized engine.
	Speedups map[string]float64 `json:"speedups"`
	Results  []result           `json:"results"`
}

func parse(r io.Reader) ([]result, int, error) {
	var out []result
	gomaxprocs := 1
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if m[2] != "" {
			if n, err := strconv.Atoi(m[2]); err == nil && n > gomaxprocs {
				gomaxprocs = n
			}
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("benchfrontier: bad ns/op in %q: %w", sc.Text(), err)
		}
		res := result{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[5] != "" {
			res.ConfigsPerSec, _ = strconv.ParseFloat(m[5], 64)
		}
		if m[6] != "" {
			res.BytesPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		if m[7] != "" {
			res.AllocsPerOp, _ = strconv.ParseInt(m[7], 10, 64)
		}
		out = append(out, res)
	}
	return out, gomaxprocs, sc.Err()
}

// round2 keeps headline ratios at two significant decimals.
func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

func main() {
	in := io.Reader(os.Stdin)
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfrontier:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	results, gomaxprocs, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfrontier:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchfrontier: no benchmark lines on input")
		os.Exit(1)
	}

	byName := map[string]float64{}
	for _, r := range results {
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
	speedups := map[string]float64{}
	for out, pair := range map[string][2]string{
		"frontier_sweep":         {"BenchmarkFrontierSweepReference", "BenchmarkFrontierSweepFast"},
		"frontier_sweep_warm":    {"BenchmarkFrontierSweepReference", "BenchmarkFrontierSweepFastWarm"},
		"frontier_sweep_noprune": {"BenchmarkFrontierSweepReference", "BenchmarkFrontierSweepFastNoPrune"},
		"evaluate":               {"BenchmarkEvaluateReference", "BenchmarkEvaluateFast"},
	} {
		if v, ok := ratio(pair[0], pair[1]); ok {
			speedups[out] = round2(v)
		}
	}

	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	out := summary{
		GoMaxProcs: gomaxprocs,
		Speedups:   speedups,
		Results:    results,
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchfrontier:", err)
		os.Exit(1)
	}
}
