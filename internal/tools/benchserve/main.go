// Command benchserve measures epserve's serving capacity: it boots the
// service in-process on an ephemeral port, then binary-searches the
// maximum open-loop arrival rate each scenario sustains while holding
// its p99 latency inside the SLO with zero sheds, drops or errors. Two
// scenarios bracket the batch plane's amortization claim: "scalar"
// drives one evaluation per HTTP request, "batchN" drives the same warm
// percentile evaluations N at a time through POST /v1/percentiles. The
// open-loop generator measures latency from each request's scheduled
// arrival (coordinated-omission-safe), so a saturated probe fails on
// queueing delay instead of silently slowing down.
//
// Invoked by `make bench-serve`, which commits the JSON summary as
// BENCH_serve.json; `-probe 300ms -smoke` is the quick CI variant that
// checks the harness end to end without chasing stable numbers.
//
// Usage:
//
//	benchserve [-slo 50ms] [-probe 2s] [-batch 64] [-out BENCH_serve.json] [-smoke]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/telemetry"
)

// scenario is one capacity search target.
type scenario struct {
	Name string
	// Items is how many evaluations one request carries.
	Items   int
	Targets []loadgen.Target
	// StartRate seeds the doubling search (requests/s).
	StartRate float64
}

// probeResult is one scenario's entry in the JSON summary.
type probeResult struct {
	// MaxRPS is the highest sustained request rate meeting the SLO.
	MaxRPS float64 `json:"max_rps"`
	// ItemsPerSec is MaxRPS times the evaluations per request — the
	// apples-to-apples throughput across scenarios.
	ItemsPerSec float64 `json:"items_per_sec"`
	// P50/P99 are the client-side latencies at MaxRPS, in milliseconds,
	// measured from scheduled arrival.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Requests is how many requests the accepted probe completed.
	Requests int `json:"requests"`
}

type summary struct {
	SLOP99Ms     float64                `json:"slo_p99_ms"`
	ProbeSeconds float64                `json:"probe_seconds"`
	BatchSize    int                    `json:"batch_size"`
	GOMAXPROCS   int                    `json:"gomaxprocs"`
	Scenarios    map[string]probeResult `json:"scenarios"`
	// BatchPerItemSpeedup is batch items/s over scalar items/s — the
	// headline amortization factor of the batch plane.
	BatchPerItemSpeedup float64 `json:"batch_per_item_speedup"`
}

func main() {
	slo := flag.Duration("slo", 50*time.Millisecond, "p99 latency objective a sustained rate must hold")
	probe := flag.Duration("probe", 2*time.Second, "duration of each rate probe")
	batch := flag.Int("batch", 64, "evaluations per request in the batch scenario")
	out := flag.String("out", "", "write the JSON summary to this file (default stdout)")
	smoke := flag.Bool("smoke", false, "harness check: cap the search early, skip the speedup assertion")
	flag.Parse()
	if err := run(*slo, *probe, *batch, *out, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", err)
		os.Exit(1)
	}
}

func run(slo, probe time.Duration, batch int, out string, smoke bool) error {
	srv, err := serve.New(serve.Config{Telemetry: telemetry.New()})
	if err != nil {
		return err
	}
	addrCh := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe("127.0.0.1:0", addrCh) }()
	var baseURL string
	select {
	case addr := <-addrCh:
		baseURL = "http://" + addr.String()
	case err := <-serveErr:
		return fmt.Errorf("starting epserve: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // drain best-effort
	}()

	// The same warm utilization grid backs both scenarios, so a batch
	// item and a scalar request do identical work (a cached percentile
	// evaluation) and the ratio isolates the per-request overhead.
	us := utilGrid(batch)
	scalar := scenario{Name: "scalar", Items: 1, StartRate: 50}
	for _, u := range us {
		scalar.Targets = append(scalar.Targets,
			loadgen.Target{Path: fmt.Sprintf("/v1/percentiles?d=1&u=%.4f&p=50,95,99", u)})
	}
	body, err := batchBody(us)
	if err != nil {
		return err
	}
	batched := scenario{
		Name: fmt.Sprintf("batch%d", batch), Items: batch, StartRate: 2,
		Targets: []loadgen.Target{{Path: "/v1/percentiles", Body: body}},
	}

	// Client tuned for sustained rates: idle connections sized to the
	// worker pool so probes measure the server, not connection churn.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	maxDoubles := 20
	if smoke {
		maxDoubles = 2
	}
	res := summary{
		SLOP99Ms:     float64(slo) / float64(time.Millisecond),
		ProbeSeconds: probe.Seconds(),
		BatchSize:    batch,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Scenarios:    map[string]probeResult{},
	}
	for _, sc := range []scenario{scalar, batched} {
		warmup(client, baseURL, sc.Targets)
		pr, err := search(client, baseURL, sc, slo, probe, maxDoubles)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		fmt.Fprintf(os.Stderr, "%-8s max %8.0f req/s  %10.0f items/s  p99 %6.2f ms\n",
			sc.Name, pr.MaxRPS, pr.ItemsPerSec, pr.P99Ms)
		res.Scenarios[sc.Name] = pr
	}
	if s, b := res.Scenarios["scalar"], res.Scenarios[batched.Name]; s.ItemsPerSec > 0 {
		res.BatchPerItemSpeedup = round2(b.ItemsPerSec / s.ItemsPerSec)
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintln(os.Stderr, "wrote", out)
	}
	return nil
}

// utilGrid spreads n utilization points across the stable region; the
// grid is fixed per n, so warmup populates every cache cell the probes
// will touch.
func utilGrid(n int) []float64 {
	us := make([]float64, n)
	for i := range us {
		us[i] = 0.30 + 0.60*float64(i)/float64(n)
	}
	return us
}

func batchBody(us []float64) ([]byte, error) {
	return json.Marshal(map[string]any{
		"u":     us,
		"p":     []float64{50, 95, 99},
		"items": []map[string]any{{"d": 1.0}},
	})
}

// warmup issues every target once so the analysis memo and frontier
// tables are hot before the first probe.
func warmup(client *http.Client, baseURL string, targets []loadgen.Target) {
	for _, tgt := range targets {
		var resp *http.Response
		var err error
		if tgt.Body != nil {
			resp, err = client.Post(baseURL+tgt.Path, "application/json", strings.NewReader(string(tgt.Body)))
		} else {
			resp, err = client.Get(baseURL + tgt.Path)
		}
		if err == nil {
			resp.Body.Close()
		}
	}
}

// search doubles the offered rate until a probe fails the SLO, then
// bisects the bracket; it returns the stats of the highest passing
// probe.
func search(client *http.Client, baseURL string, sc scenario, slo, probe time.Duration, maxDoubles int) (probeResult, error) {
	probeOnce := func(rate float64) (*loadgen.Result, bool, error) {
		r, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:     baseURL,
			Targets:     sc.Targets,
			Concurrency: 64,
			Duration:    probe,
			Rate:        rate,
			DrainGrace:  2 * slo,
			Client:      client,
		})
		if err != nil {
			return nil, false, err
		}
		ok := r.Dropped == 0 && r.TransportErrors == 0 && r.Non2xx == 0 &&
			r.Count5xx() == 0 && r.Latency(99) <= slo && r.Requests > 0
		fmt.Fprintf(os.Stderr, "  probe %-8s %8.0f req/s  ok=%-5v p99 %8.2f ms  n=%d non2xx=%d drop=%d\n",
			sc.Name, rate, ok, float64(r.Latency(99))/float64(time.Millisecond), r.Requests, r.Non2xx, r.Dropped)
		return r, ok, nil
	}
	// A low-rate probe sees few requests, so its p99 is effectively its
	// max and one scheduler or GC hiccup fails it; retry once so a single
	// outlier does not masquerade as the capacity limit.
	attempt := func(rate float64) (*loadgen.Result, bool, error) {
		r, ok, err := probeOnce(rate)
		if err != nil || ok {
			return r, ok, err
		}
		return probeOnce(rate)
	}

	rate := sc.StartRate
	var best *loadgen.Result
	bestRate := 0.0
	for i := 0; i < maxDoubles; i++ {
		r, ok, err := attempt(rate)
		if err != nil {
			return probeResult{}, err
		}
		if !ok {
			break
		}
		best, bestRate = r, rate
		rate *= 2
	}
	if best == nil {
		return probeResult{}, fmt.Errorf("no sustained rate at or above %.0f req/s (p99 SLO %v)", sc.StartRate, slo)
	}
	// Bisect between the last pass and the first failure.
	lo, hi := bestRate, rate
	for i := 0; i < 5 && hi-lo > lo*0.05; i++ {
		mid := (lo + hi) / 2
		r, ok, err := attempt(mid)
		if err != nil {
			return probeResult{}, err
		}
		if ok {
			best, bestRate, lo = r, mid, mid
		} else {
			hi = mid
		}
	}
	return probeResult{
		MaxRPS:      round2(bestRate),
		ItemsPerSec: round2(bestRate * float64(sc.Items)),
		P50Ms:       round2(float64(best.Latency(50)) / float64(time.Millisecond)),
		P99Ms:       round2(float64(best.Latency(99)) / float64(time.Millisecond)),
		Requests:    best.Requests,
	}, nil
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
