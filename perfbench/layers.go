package main

import (
	"math/rand/v2"
	"time"

	"repro/internal/queueing"
)

// perLayerMetric is one per-layer metric. Every traced run prints every
// one; a metric of a layer the workload never enters reads 0.
type perLayerMetric struct {
	name, unit string
}

// routes are the serve routes the workloads drive.
var routes = []string{"percentiles.GET", "percentiles.POST", "epmetrics.GET", "frontier.GET", "replay.POST"}

// layerNames are the program packages a direct op's spans enter.
var layerNames = []string{"queueing", "energyprop", "pareto", "replay", "fleet"}

// perLayer lists the per-layer metrics in output order.
var perLayer = func() []perLayerMetric {
	var out []perLayerMetric
	for _, r := range routes {
		out = append(out, perLayerMetric{"serve.handler_ms." + r, "ms"})
	}
	for _, r := range routes {
		out = append(out, perLayerMetric{"serve.self_ms." + r, "ms"})
	}
	out = append(out,
		perLayerMetric{"serve.resp_bytes_per_op", "B"},
		perLayerMetric{"serve.non2xx", "count"},
		perLayerMetric{"serve.batch_item_errors", "count"},
		perLayerMetric{"queueing.hit_ratio", "ratio"},
		perLayerMetric{"queueing.misses_per_op", "count"},
		perLayerMetric{"queueing.cdf_calls_per_miss", "count"},
		perLayerMetric{"queueing.solve_us", "us"},
		perLayerMetric{"energyprop.analyze_ms", "ms"},
		perLayerMetric{"model.table_ms", "ms"},
		perLayerMetric{"pareto.sweep_ms", "ms"},
		perLayerMetric{"pareto.sweep_ms.serial", "ms"},
		perLayerMetric{"pareto.sweep_cpu_ms", "ms"},
		perLayerMetric{"pareto.sweep_cpu_ms.serial", "ms"},
		perLayerMetric{"pareto.configs_per_op", "count"},
		perLayerMetric{"pareto.prunable_share", "ratio"},
		perLayerMetric{"pareto.annotate_ms", "ms"},
		perLayerMetric{"replay.run_ms", "ms"},
		perLayerMetric{"adaptive.decisions_per_op", "count"},
		perLayerMetric{"adaptive.switches_per_op", "count"},
		perLayerMetric{"scenario.parse_ms", "ms"},
		perLayerMetric{"scenario.build_ms", "ms"},
		perLayerMetric{"fleet.new_ms", "ms"},
		perLayerMetric{"fleet.run_ms", "ms"},
		perLayerMetric{"fleet.events_per_op", "count"},
		perLayerMetric{"fleet.events_per_cpu_s", "1/s"},
		perLayerMetric{"go.allocs_per_op", "count"},
		perLayerMetric{"go.bytes_per_op", "B"},
		perLayerMetric{"go.gc_per_kop", "count"},
		perLayerMetric{"go.gc_cpu_frac", "ratio"},
		perLayerMetric{"telemetry.overhead_p50_ms", "ms"},
		perLayerMetric{"telemetry.spans_per_op", "count"},
		perLayerMetric{"telemetry.retained_kb_per_op", "KiB"},
		perLayerMetric{"env.steal_share", "ratio"},
		perLayerMetric{"env.wall_per_cpu", "ratio"},
		perLayerMetric{"layer.entry_ms", "ms"},
		perLayerMetric{"layer.serve_self_ms", "ms"},
	)
	for _, l := range layerNames {
		out = append(out, perLayerMetric{"layer." + l + "_ms", "ms"})
	}
	return append(out, perLayerMetric{"layer.unattributed_ms", "ms"})
}()

// layerMetrics joins the passes of one traced run: m is the untraced
// pass, h the handler pass with the registry installed, d the direct
// pass over the same ops; hs and ds are h's and d's spans.
//
// Per op, the handler pass's entry-point time H splits into serve's self
// time H-D, the direct pass's layer spans L, and the direct pass's time
// in no layer span, D-sum(L), reported as unattributed. fleet-1200 has no
// serve layer: its entry time is the direct op.
func layerMetrics(wl string, m, h, d *childResult, hs, ds []span) map[string]metric {
	v := make(map[string]float64)
	for k, x := range d.Extra {
		v[k] = x
	}

	hOps, dOps := byOp(hs), byOp(ds)
	route := make(map[int32]string) // op -> route, from the handler pass
	entry := make(map[int32]time.Duration)
	for _, s := range hs {
		if s.Op >= 0 && s.Name == "serve.ServeHTTP" {
			entry[s.Op] += s.dur()
			route[s.Op] = s.Route
		}
	}
	hRoute := make(map[string][]float64)
	dRoute := make(map[string][]float64)
	var sumEntry, sumSelf, sumUnattr time.Duration
	sumLayer := make(map[string]time.Duration)
	n := 0
	for op, dt := range dOps {
		if _, ok := hOps[op]; !ok {
			continue
		}
		n++
		var inLayers time.Duration
		for l, x := range dt.layers {
			sumLayer[l] += x
			inLayers += x
		}
		sumUnattr += dt.total - inLayers
		e := dt.total
		if wl != fleetWorkload {
			e = entry[op]
			sumSelf += e - dt.total
		}
		sumEntry += e
		r, ok := route[op]
		if !ok {
			r = "fleet"
		}
		hRoute[r] = append(hRoute[r], float64(e)/1e6)
		dRoute[r] = append(dRoute[r], float64(dt.total)/1e6)
	}
	if n > 0 {
		per := func(x time.Duration) float64 { return float64(x) / 1e6 / float64(n) }
		v["layer.entry_ms"] = per(sumEntry)
		v["layer.serve_self_ms"] = per(sumSelf)
		v["layer.unattributed_ms"] = per(sumUnattr)
		for _, l := range layerNames {
			v["layer."+l+"_ms"] = per(sumLayer[l])
		}
	}
	if wl != fleetWorkload {
		for _, r := range routes {
			if len(hRoute[r]) == 0 {
				continue
			}
			v["serve.handler_ms."+r] = median(hRoute[r])
			v["serve.self_ms."+r] = median(hRoute[r]) - median(dRoute[r])
		}
	}

	if m.Ops > 0 {
		ops := float64(m.Ops)
		if wl != fleetWorkload {
			v["serve.resp_bytes_per_op"] = float64(m.RespBytes) / ops
		}
		v["serve.non2xx"] = float64(m.Non2xx)
		v["serve.batch_item_errors"] = float64(m.BatchErrs)
		v["go.allocs_per_op"] = float64(m.Mem.Mallocs) / ops
		v["go.bytes_per_op"] = float64(m.Mem.Bytes) / ops
		v["go.gc_per_kop"] = float64(m.Mem.NumGC) / ops * 1000
		if m.Timed.CPUS > 0 {
			v["go.gc_cpu_frac"] = m.Mem.GCCPUS / m.Timed.CPUS
			v["env.wall_per_cpu"] = m.Timed.WallS / m.Timed.CPUS
		}
		v["env.steal_share"] = m.Timed.StealS
	}
	if h.Ops > 0 {
		ops := float64(h.Ops)
		hits := float64(h.Counters["queueing.percentile_cache_hits"])
		misses := float64(h.Counters["queueing.percentile_cache_misses"])
		if hits+misses > 0 {
			v["queueing.hit_ratio"] = hits / (hits + misses)
		}
		v["queueing.misses_per_op"] = misses / ops
		if misses > 0 {
			v["queueing.cdf_calls_per_miss"] = float64(h.Counters["queueing.wait_cdf_calls"]) / misses
		}
		v["telemetry.overhead_p50_ms"] = h.P50MS - m.P50MS
		v["telemetry.spans_per_op"] = float64(h.Spans) / ops
		v["telemetry.retained_kb_per_op"] = h.Retained / 1024 / ops
	}

	out := make(map[string]metric)
	for _, pl := range perLayer {
		out[pl.name] = metric{Value: v[pl.name], Unit: pl.unit}
	}
	return out
}

// solveProbe times cold percentile solves: each call asks for the p95
// wait at a utilization no op has used, so it misses the cache. It
// returns the median in microseconds.
func solveProbe(seed uint64, lo, hi float64) float64 {
	rng := rand.New(rand.NewPCG(seed, 0x501e))
	us := make([]float64, 0, 200)
	for range cap(us) {
		u := lo + (hi-lo)*rng.Float64()
		q, err := queueing.Spec{}.Build(u, 1)
		if err != nil {
			continue
		}
		t0 := time.Now()
		if _, err := q.WaitPercentile(95); err == nil {
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	return median(us)
}
