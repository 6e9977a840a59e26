// Command benchjson turns `go test -bench` output for the queueing
// kernel into the small JSON summary committed as BENCH_queueing.json:
// per-benchmark ns/op, B/op and allocs/op, plus the derived headline
// speedups of the fast paths over the preserved reference
// implementation. Invoked by `make bench-queueing`; reads the benchmark
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
)

// benchLine matches one `go test -bench` result row, e.g.
//
//	BenchmarkWaitCDF-8   	   18276	     65792 ns/op	   41234 B/op	     469 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

type summary struct {
	// Speedups pit the preserved pre-PR reference implementation
	// against the rewritten kernel on the same inputs.
	Speedups map[string]float64 `json:"speedups"`
	Results  []result           `json:"results"`
}

func parse(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", sc.Text(), err)
		}
		res := result{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			res.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			res.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		out = append(out, res)
	}
	return out, sc.Err()
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
	results, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on input")
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
		"wait_cdf":                  {"BenchmarkWaitCDFReference", "BenchmarkWaitCDF"},
		"response_percentile_cold":  {"BenchmarkResponsePercentileReference", "BenchmarkResponsePercentileCold"},
		"response_percentile_batch": {"BenchmarkResponsePercentileReference", "BenchmarkResponsePercentilesBatch"},
	} {
		if v, ok := ratio(pair[0], pair[1]); ok {
			// Two significant digits: these are headline ratios, not
			// benchstat-grade measurements.
			speedups[out] = float64(int64(v*100+0.5)) / 100
		}
	}

	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(summary{Speedups: speedups, Results: results}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
