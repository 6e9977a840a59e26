// Package loadgen is an HTTP load driver for epserve with two arrival
// models: closed-loop (a fixed number of workers issue requests
// back-to-back — throughput floats with the server) and open-loop (a
// fixed arrival rate with latency measured from each request's
// scheduled arrival time, immune to coordinated omission — the model a
// capacity benchmark needs). Targets may be GET paths or POST bodies
// (the batch endpoints), and the result separates transport errors,
// non-2xx responses and per-item batch errors. It backs the overload
// tests, the `make serve-smoke` gate and the `make bench-serve`
// capacity benchmark.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Target is one request in the load mix: a GET path, or a POST with a
// JSON body when Body is non-nil.
type Target struct {
	// Method is the HTTP method; empty means GET (POST when Body is set).
	Method string
	// Path is the request path with query, e.g. "/v1/percentiles?d=1&u=0.9".
	Path string
	// Body is the JSON request body for batch (POST) targets.
	Body []byte
}

func (t Target) method() string {
	if t.Method != "" {
		return t.Method
	}
	if t.Body != nil {
		return http.MethodPost
	}
	return http.MethodGet
}

// Config parameterizes a load run.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Paths are GET request paths (with query) cycled through by the
	// workers; used when Targets is empty. Empty uses a default mix of
	// percentile queries.
	Paths []string
	// Targets generalizes Paths to mixed-method targets (batch POSTs).
	// When set, Paths is ignored.
	Targets []Target
	// Concurrency is the worker count: the closed-loop parallelism, or
	// the maximum in-flight requests in open-loop mode; 0 means 8.
	Concurrency int
	// Duration is how long arrivals keep coming; 0 means 5s.
	Duration time.Duration
	// Rate switches to open-loop mode: arrivals are scheduled at this
	// fixed rate (per second, across all targets) for Duration, and each
	// request's latency is measured from its scheduled arrival — a
	// saturated server therefore shows queueing delay instead of
	// silently slowing the generator down (coordinated omission). 0
	// keeps the closed loop.
	Rate float64
	// DrainGrace bounds how long past Duration a run may keep working;
	// 0 means 5s. Neither loop issues a request after Duration. The
	// closed loop lets requests in flight at Duration finish within the
	// grace, so the end of a run never cancels one a server is still
	// serving. The open loop also works through its arrival backlog
	// until the grace runs out, then drops the remaining arrivals (and
	// reports them as Dropped).
	DrainGrace time.Duration
	// Client issues the requests; nil uses a client with a 30s timeout.
	Client *http.Client
}

// DefaultPaths is the request mix used when Config.Paths is empty: hot
// cached percentile queries plus a metrics scrape, approximating a
// dashboard's steady-state traffic.
var DefaultPaths = []string{
	"/v1/percentiles?d=1&u=0.9",
	"/v1/percentiles?d=1&u=0.5&p=50,90,99,99.9",
	"/v1/percentiles?workload=EP&mix=32xA9,12xK10&u=0.8",
	"/v1/epmetrics?workload=EP&mix=32xA9,12xK10",
	"/metrics",
}

// Result aggregates one load run.
type Result struct {
	// Requests is the total number of requests issued.
	Requests int
	// Status counts responses by HTTP status code.
	Status map[int]int
	// TransportErrors counts requests that failed before a status line
	// (dial errors, timeouts). Context cancellation at the end of the run
	// is not counted.
	TransportErrors int
	// Non2xx counts responses whose status was outside [200, 300) —
	// application-level rejections (shed, bad request, deadline),
	// reported separately from transport failures.
	Non2xx int
	// BatchItemErrors sums the X-Batch-Errors headers of batch
	// responses: evaluations that failed inside otherwise-200 batches.
	BatchItemErrors int
	// Offered is the open-loop arrival rate (0 for closed-loop runs).
	Offered float64
	// Dropped counts open-loop arrivals never issued because the run hit
	// Duration + DrainGrace with a backlog — a sign the offered rate is
	// far past capacity.
	Dropped int
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
	// latencies holds every completed request's latency, sorted
	// ascending. Open-loop latency runs from the scheduled arrival, not
	// the actual send.
	latencies []time.Duration
}

// Throughput returns completed requests per second (the achieved rate
// in open-loop mode).
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// Latency returns the p-th percentile (0 < p <= 100) of client-side
// latency over responses that carried a status code, or 0 when none did.
func (r *Result) Latency(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(r.latencies)))
	if idx >= len(r.latencies) {
		idx = len(r.latencies) - 1
	}
	return r.latencies[idx]
}

// Count5xx returns the number of 5xx responses — the smoke gate's
// failure condition.
func (r *Result) Count5xx() int {
	n := 0
	for code, c := range r.Status {
		if code >= 500 {
			n += c
		}
	}
	return n
}

// String formats the run summary as a human-readable block.
func (r *Result) String() string {
	var b strings.Builder
	if r.Offered > 0 {
		fmt.Fprintf(&b, "requests  %d in %v (offered %.0f req/s, achieved %.0f req/s)\n",
			r.Requests, r.Elapsed.Round(time.Millisecond), r.Offered, r.Throughput())
	} else {
		fmt.Fprintf(&b, "requests  %d in %v (%.0f req/s)\n", r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput())
	}
	codes := make([]int, 0, len(r.Status))
	for code := range r.Status {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(&b, "  status %d: %d\n", code, r.Status[code])
	}
	if r.Non2xx > 0 {
		fmt.Fprintf(&b, "  non-2xx responses: %d\n", r.Non2xx)
	}
	if r.BatchItemErrors > 0 {
		fmt.Fprintf(&b, "  batch item errors: %d\n", r.BatchItemErrors)
	}
	if r.TransportErrors > 0 {
		fmt.Fprintf(&b, "  transport errors: %d\n", r.TransportErrors)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "  dropped arrivals: %d (backlog past drain grace)\n", r.Dropped)
	}
	fmt.Fprintf(&b, "latency   p50 %v  p95 %v  p99 %v",
		r.Latency(50).Round(time.Microsecond),
		r.Latency(95).Round(time.Microsecond),
		r.Latency(99).Round(time.Microsecond))
	return b.String()
}

// ServerStats fetches the target's /v1/debug/stats snapshot — the
// server-side view of the run just driven (per-route RED, SLO standing,
// build identity), complementing Result's client-side percentiles.
// client nil uses a client with a 10s timeout.
func ServerStats(ctx context.Context, client *http.Client, baseURL string) (*serve.DebugStatsResponse, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(baseURL, "/")+"/v1/debug/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /v1/debug/stats returned %s", resp.Status)
	}
	var stats serve.DebugStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, fmt.Errorf("loadgen: decoding /v1/debug/stats: %w", err)
	}
	return &stats, nil
}

// FormatServerStats renders the server-side summary printed after a
// run: the build line, then one line per route that actually served
// requests, with latency percentiles and SLO compliance.
func FormatServerStats(stats *serve.DebugStatsResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "server    %s, uptime %s, inflight %.0f",
		stats.Build, (time.Duration(stats.UptimeSeconds * float64(time.Second))).Round(time.Second), stats.Inflight)
	routes := make([]string, 0, len(stats.Routes))
	for route, rs := range stats.Routes {
		if rs.Requests > 0 {
			routes = append(routes, route)
		}
	}
	sort.Strings(routes)
	for _, route := range routes {
		rs := stats.Routes[route]
		fmt.Fprintf(&b, "\n  %-12s %d reqs", route, rs.Requests)
		if l := rs.Latency; l != nil {
			fmt.Fprintf(&b, "  p50 %s p95 %s p99 %s",
				secondsDuration(l.P50Seconds), secondsDuration(l.P95Seconds), secondsDuration(l.P99Seconds))
		}
		if rs.SLO != nil {
			fmt.Fprintf(&b, "  slo %.4f (budget used %.2f)", rs.SLO.Compliance, rs.SLO.BudgetUsed)
		}
	}
	return b.String()
}

func secondsDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}

// tally is one worker's private aggregation, merged after the run.
type tally struct {
	requests  int
	status    map[int]int
	transport int
	non2xx    int
	batchErrs int
	latencies []time.Duration
}

// issue sends one target request and records it. base is the latency
// origin: the scheduled arrival in open-loop mode, the send time in
// closed-loop mode. It returns false when the request was cut off by
// the run's end rather than failing.
func issue(ctx context.Context, client *http.Client, baseURL string, tgt Target, base time.Time, t *tally) bool {
	var body io.Reader
	if tgt.Body != nil {
		body = bytes.NewReader(tgt.Body)
	}
	req, err := http.NewRequestWithContext(ctx, tgt.method(), baseURL+tgt.Path, body)
	if err != nil {
		t.transport++
		return true
	}
	if tgt.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t.requests++
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			t.requests-- // cut off by end-of-run, not a real failure
			return false
		}
		t.transport++
		return true
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	t.status[resp.StatusCode]++
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		t.non2xx++
	}
	if hdr := resp.Header.Get("X-Batch-Errors"); hdr != "" {
		if n, err := strconv.Atoi(hdr); err == nil {
			t.batchErrs += n
		}
	}
	t.latencies = append(t.latencies, time.Since(base))
	return true
}

// Run drives the load against cfg.BaseURL and merges the per-worker
// tallies into one Result. With Rate set the run is open-loop;
// otherwise Concurrency workers issue requests back-to-back.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL required")
	}
	targets := cfg.Targets
	if len(targets) == 0 {
		paths := cfg.Paths
		if len(paths) == 0 {
			paths = DefaultPaths
		}
		targets = make([]Target, len(paths))
		for i, p := range paths {
			targets[i] = Target{Path: p}
		}
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 8
	}
	dur := cfg.Duration
	if dur <= 0 {
		dur = 5 * time.Second
	}
	grace := cfg.DrainGrace
	if grace <= 0 {
		grace = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Rate > 0 {
		return runOpen(ctx, cfg, targets, workers, dur, grace, client)
	}
	return runClosed(ctx, cfg, targets, workers, dur, grace, client)
}

// runClosed is the closed loop: workers issue back-to-back until the
// duration elapses, and the requests then in flight finish within the
// drain grace; latency runs from each request's send time.
func runClosed(ctx context.Context, cfg Config, targets []Target, workers int, dur, grace time.Duration, client *http.Client) (*Result, error) {
	ctx, cancel := context.WithTimeout(ctx, dur+grace)
	defer cancel()

	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			t.status = make(map[int]int)
			for i := 0; ctx.Err() == nil && time.Now().Before(stop); i++ {
				if !issue(ctx, client, cfg.BaseURL, targets[(w+i)%len(targets)], time.Now(), t) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return merge(tallies, time.Since(start), 0, 0), nil
}

// runOpen is the open loop: arrivals are pre-scheduled on a fixed-rate
// grid over the duration and handed to workers in order; each worker
// sleeps until its arrival's scheduled time (or starts late when the
// backlog has it behind schedule) and measures latency from that
// scheduled time. A server past saturation therefore accumulates
// backlog that shows up as latency — the generator never slows its
// arrival process to match the server (coordinated omission).
func runOpen(ctx context.Context, cfg Config, targets []Target, workers int, dur, grace time.Duration, client *http.Client) (*Result, error) {
	total := int64(cfg.Rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	ctx, cancel := context.WithTimeout(ctx, dur+grace)
	defer cancel()

	tallies := make([]tally, workers)
	var next, attempts atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur + grace)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			t.status = make(map[int]int)
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				if time.Now().After(deadline) || ctx.Err() != nil {
					next.Store(total) // stop the other workers too
					return
				}
				sched := start.Add(time.Duration(i) * interval)
				if d := time.Until(sched); d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						next.Store(total)
						return
					}
				}
				attempts.Add(1)
				if !issue(ctx, client, cfg.BaseURL, targets[i%int64(len(targets))], sched, t) {
					attempts.Add(-1) // cut off mid-flight: counts as dropped
					next.Store(total)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every arrival on the grid was either attempted or dropped — the
	// difference needs no per-worker race accounting.
	return merge(tallies, time.Since(start), cfg.Rate, int(total-attempts.Load())), nil
}

// merge folds the per-worker tallies into one Result.
func merge(tallies []tally, elapsed time.Duration, offered float64, dropped int) *Result {
	res := &Result{Status: make(map[int]int), Elapsed: elapsed, Offered: offered, Dropped: dropped}
	for i := range tallies {
		t := &tallies[i]
		res.Requests += t.requests
		res.TransportErrors += t.transport
		res.Non2xx += t.non2xx
		res.BatchItemErrors += t.batchErrs
		for code, c := range t.status {
			res.Status[code] += c
		}
		res.latencies = append(res.latencies, t.latencies...)
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res
}
